package main

import (
	"context"
	"errors"
	"fmt"
	"math"
	"net/http"
	"sort"
	"time"

	lc "leanconsensus"
)

// percentile returns the p-quantile (0 ≤ p ≤ 1) of samples, interpolated
// linearly between the two nearest order statistics of the exact sorted
// samples (the "type 7" estimator, as numpy and R use by default). The
// samples are sorted in place. It returns 0 for an empty sample: callers
// report the sample count beside every quantile.
func percentile(samples []float64, p float64) float64 {
	if len(samples) == 0 {
		return 0
	}
	sort.Float64s(samples)
	h := p * float64(len(samples)-1)
	lo := int(math.Floor(h))
	if lo >= len(samples)-1 {
		return samples[len(samples)-1]
	}
	return samples[lo] + (h-float64(lo))*(samples[lo+1]-samples[lo])
}

// median is percentile(samples, 0.5).
func median(samples []float64) float64 { return percentile(samples, 0.5) }

// ratio is a/b, or 0 when b is 0, so an empty window reports 0 rather
// than a value JSON cannot carry.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// ms converts a duration to fractional milliseconds.
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// wrongResultError marks an operation whose answer arrived but failed a
// correctness check.
type wrongResultError struct{ msg string }

func (e *wrongResultError) Error() string { return "wrong result: " + e.msg }

// wrongf builds a wrongResultError.
func wrongf(format string, args ...any) error {
	return &wrongResultError{msg: fmt.Sprintf(format, args...)}
}

// Failure classes an operation can end in.
const (
	failShed    = "shed"    // refused by admission control: 429, or 503 while draining
	failTimeout = "timeout" // no final status before the operation's deadline
	failWrong   = "wrong"   // answered, but the answer failed a check
	failError   = "error"   // any other transport or API error
)

// classify names the failure class of err ("" for success).
func classify(err error) string {
	var over *lc.OverloadedError
	var api *lc.APIError
	var wrong *wrongResultError
	switch {
	case err == nil:
		return ""
	case errors.As(err, &wrong):
		return failWrong
	case errors.As(err, &over):
		return failShed
	case errors.As(err, &api) && api.StatusCode == http.StatusServiceUnavailable:
		return failShed
	case errors.Is(err, context.DeadlineExceeded):
		return failTimeout
	default:
		return failError
	}
}

// ledger counts operations attempted and failed, each operation once,
// with the failures broken down by class.
type ledger struct {
	Attempted int            `json:"attempted"`
	Failed    int            `json:"failed"`
	ByClass   map[string]int `json:"byClass,omitempty"`
	// First keeps the first failure message of each class, for the run
	// record.
	First map[string]string `json:"first,omitempty"`
}

// add records one operation's outcome.
func (l *ledger) add(err error) {
	l.Attempted++
	c := classify(err)
	if c == "" {
		return
	}
	l.Failed++
	if l.ByClass == nil {
		l.ByClass = map[string]int{}
		l.First = map[string]string{}
	}
	l.ByClass[c]++
	if _, ok := l.First[c]; !ok {
		l.First[c] = err.Error()
	}
}

// share is failed divided by attempted (0 when nothing was attempted).
func (l *ledger) share() float64 {
	if l.Attempted == 0 {
		return 0
	}
	return float64(l.Failed) / float64(l.Attempted)
}

// stages is one operation's latency broken into the spans measured at
// the layer boundaries. Lag is due→send (the load generator's own
// lateness), Submit the client's submit calls, Queue job.admit→job.start,
// Run job.start→job.done, and DoneToResult job.done→the client holding
// the final status.
type stages struct {
	E2E, Lag, Submit, Queue, Run, DoneToResult time.Duration
}

// residue is the part of the end-to-end latency no measured stage
// accounts for. The stages come from independent clocks (the client's
// and the journal's) and may overlap — the 202 is written after
// job.admit — so the residue can be slightly negative.
func (s stages) residue() time.Duration {
	return s.E2E - (s.Lag + s.Submit + s.Queue + s.Run + s.DoneToResult)
}
