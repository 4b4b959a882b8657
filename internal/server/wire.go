package server

import (
	"encoding/json"
	"fmt"
	"io"

	"leanconsensus/internal/api"
	"leanconsensus/internal/engine"
)

// MaxTraceK caps the per-shard capture budget a submission may request.
const MaxTraceK = api.MaxTraceK

// Batch is a decoded, fully validated POST /v1/jobs body: the raw specs
// side by side with their resolved jobs, plus the requested per-shard
// trace budget (0 = tracing off).
type Batch struct {
	Specs  []engine.JobSpec
	Jobs   []engine.Job
	TraceK int
}

// DecodeSubmit parses and validates a POST /v1/jobs body. Every failure
// is a client error (HTTP 400): malformed JSON, unknown fields, trailing
// garbage, an empty or oversized batch, and any spec the engine
// registries refuse. It never panics on hostile input — the root
// package's FuzzJobSpecDecode holds it to that.
func DecodeSubmit(r io.Reader, maxBatch int) (*Batch, error) {
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	var req api.SubmitRequest
	if err := dec.Decode(&req); err != nil {
		return nil, fmt.Errorf("server: bad request body: %v", err)
	}
	if dec.More() {
		return nil, fmt.Errorf("server: trailing data after request body")
	}
	if len(req.Jobs) == 0 {
		return nil, fmt.Errorf("server: batch is empty: provide at least one job spec")
	}
	if maxBatch > 0 && len(req.Jobs) > maxBatch {
		return nil, fmt.Errorf("server: batch has %d specs, maximum is %d", len(req.Jobs), maxBatch)
	}
	if req.Trace < 0 || req.Trace > MaxTraceK {
		return nil, fmt.Errorf("server: trace must be in [0, %d], got %d", MaxTraceK, req.Trace)
	}
	b := &Batch{Specs: req.Jobs, Jobs: make([]engine.Job, len(req.Jobs)), TraceK: req.Trace}
	for i, spec := range req.Jobs {
		job, err := spec.Resolve()
		if err != nil {
			return nil, fmt.Errorf("server: job spec %d: %v", i, err)
		}
		b.Jobs[i] = job
	}
	return b, nil
}
