package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"strconv"
	"strings"

	lc "leanconsensus"
	"leanconsensus/internal/arena"
	"leanconsensus/internal/engine"
	"leanconsensus/internal/xrand"
)

// references maps each distinct job spec to its expected result, with
// the wall-clock fields (ElapsedMS, Throughput) zeroed.
type references map[lc.JobSpec]lc.SpecResult

// jobReferences computes the reference result of every distinct spec
// once, in process.
func jobReferences(specs []lc.JobSpec) (references, error) {
	refs := references{}
	for _, s := range specs {
		if _, ok := refs[s]; ok {
			continue
		}
		r, err := referenceSpec(s)
		if err != nil {
			return nil, err
		}
		refs[s] = r
	}
	return refs, nil
}

// referenceSpec runs one job spec on an arena at the service's default
// pool shape, with the job workload the service documents as matching
// cmd/leanarena: keys "key-%08d" and proposal bits from the seed's
// "load" stream. Decisions depend on the pool shape, so the service
// must run with the default shape too.
func referenceSpec(s lc.JobSpec) (lc.SpecResult, error) {
	jb, err := engine.JobSpec{Model: s.Model, Variant: s.Variant, Dist: s.Dist,
		Adversary: s.Adversary, N: s.N, Seed: s.Seed, Instances: s.Instances}.Resolve()
	if err != nil {
		return lc.SpecResult{}, err
	}
	a, err := arena.New(arena.Config{N: jb.N, Noise: jb.Noise, Model: jb.Model,
		Adversary: jb.Adversary, Seed: jb.Seed})
	if err != nil {
		return lc.SpecResult{}, err
	}
	res := lc.SpecResult{Model: jb.ModelName, Variant: jb.VariantName, Dist: jb.DistName,
		Adversary: jb.AdvName, N: jb.N, Seed: jb.Seed, Instances: jb.Instances}
	fold := func(r arena.Result) {
		if r.Err != nil {
			res.Errors++
			return
		}
		if r.Value == 0 {
			res.Decided0++
		} else {
			res.Decided1++
		}
		res.Ops += r.Ops
		res.RoundSum += int64(r.FirstRound)
		res.MaxRound = max(res.MaxRound, r.LastRound)
	}
	if err := submitJobWorkload(a, jb.Seed, jb.Instances, fold); err != nil {
		return lc.SpecResult{}, err
	}
	if d := res.Decided0 + res.Decided1; d > 0 {
		res.MeanFirstRound = float64(res.RoundSum) / float64(d)
	}
	if res.Errors != 0 {
		return res, fmt.Errorf("reference for %+v: %d instance errors", s, res.Errors)
	}
	return res, nil
}

// submitJobWorkload submits a job's instances to a, keys "key-%08d"
// with proposal bits from the seed's "load" stream, through a window of
// the arena's queue capacity, folds every result in order, and closes a.
func submitJobWorkload(a *arena.Arena, seed uint64, instances int, fold func(arena.Result)) error {
	window := min(a.QueueCap(), instances)
	chans := make([]<-chan arena.Result, window)
	bits := xrand.New(seed, 0x6c6f6164) // "load"
	for i := 0; i < instances; i++ {
		if i >= window {
			fold(<-chans[i%window])
		}
		done, err := a.Submit(fmt.Sprintf("key-%08d", i), bits.Intn(2))
		if err != nil {
			a.Close()
			return err
		}
		chans[i%window] = done
	}
	for k := max(instances-window, 0); k < instances; k++ {
		fold(<-chans[k%window])
	}
	return a.Close()
}

// checkJob verifies a final job status against the references: every
// spec done with no errors, every instance decided, and every
// deterministic field equal to the reference.
func checkJob(st *lc.JobStatus, specs []lc.JobSpec, refs references, o *op) error {
	if st.Status != lc.JobDone {
		return wrongf("job %s status %q", st.ID, st.Status)
	}
	if len(st.Specs) != len(specs) {
		return wrongf("job %s has %d specs, sent %d", st.ID, len(st.Specs), len(specs))
	}
	for i, ss := range st.Specs {
		if ss.Result == nil {
			return wrongf("job %s spec %d has no result", st.ID, i)
		}
		got := *ss.Result
		if got.Errors != 0 || got.Decided0+got.Decided1 != int64(got.Instances) {
			return wrongf("job %s spec %d: %d errors, %d+%d decided of %d",
				st.ID, i, got.Errors, got.Decided0, got.Decided1, got.Instances)
		}
		o.results = append(o.results, got)
		got.ElapsedMS, got.Throughput = 0, 0
		if want := refs[specs[i]]; got != want {
			return wrongf("job %s spec %d: got %+v, want %+v", st.ID, i, got, want)
		}
	}
	for _, r := range o.results {
		o.decided[0] += r.Decided0
		o.decided[1] += r.Decided1
	}
	return nil
}

// reportJSON renders a campaign report the way the reference is kept.
func reportJSON(r *lc.CampaignReport) ([]byte, error) { return json.Marshal(r) }

// campaignReference runs spec in process and returns its report as
// JSON, refusing a reference with any violation or error.
func campaignReference(spec lc.CampaignSpec) ([]byte, error) {
	rep, err := (&lc.Campaign{Spec: spec}).Run(context.Background())
	if err != nil {
		return nil, fmt.Errorf("reference campaign %s: %w", spec.Name, err)
	}
	if err := cleanReport(rep); err != nil {
		return nil, fmt.Errorf("reference campaign %s: %w", spec.Name, err)
	}
	return reportJSON(rep)
}

// cleanReport fails a report with any error, violation, or undecided
// instance.
func cleanReport(rep *lc.CampaignReport) error {
	for _, c := range rep.Cells {
		if c.Errors != 0 || c.AgreementViolations != 0 || c.ValidityViolations != 0 || c.Undecided != 0 ||
			c.Decided0+c.Decided1 != c.Reps {
			return wrongf("cell %s/%s n=%d: %d errors, %d+%d violations, %d undecided, %d+%d decided of %d",
				c.Model, c.Dist, c.N, c.Errors, c.AgreementViolations, c.ValidityViolations,
				c.Undecided, c.Decided0, c.Decided1, c.Reps)
		}
	}
	return nil
}

// checkCampaign verifies a final campaign status: done, no violations,
// and a report byte-identical to the in-process reference (and so to
// every other iteration's). It adds the report's decisions to decided.
func checkCampaign(st *lc.CampaignStatus, want []byte, decided *[2]int64) error {
	if st.Status != lc.JobDone || st.Report == nil {
		return wrongf("campaign %s status %q", st.ID, st.Status)
	}
	if err := cleanReport(st.Report); err != nil {
		return err
	}
	got, err := reportJSON(st.Report)
	if err != nil {
		return err
	}
	if !bytes.Equal(got, want) {
		return wrongf("campaign %s report differs from the in-process reference", st.ID)
	}
	for _, c := range st.Report.Cells {
		decided[0] += c.Decided0
		decided[1] += c.Decided1
	}
	return nil
}

// counterSeries returns the samples of one counter family in a
// Prometheus text exposition, keyed by label set ("" for the unlabeled
// series).
func counterSeries(exposition, family string) (map[string]int64, error) {
	series := map[string]int64{}
	sc := bufio.NewScanner(strings.NewReader(exposition))
	sc.Buffer(make([]byte, 0, 64<<10), 4<<20)
	for sc.Scan() {
		line := sc.Text()
		rest, ok := strings.CutPrefix(line, family)
		if !ok || rest == "" || (rest[0] != ' ' && rest[0] != '{') {
			continue
		}
		sp := strings.LastIndexByte(rest, ' ')
		v, err := strconv.ParseInt(rest[sp+1:], 10, 64)
		if err != nil {
			return nil, fmt.Errorf("metrics line %q: %w", line, err)
		}
		series[rest[:sp]] += v
	}
	return series, sc.Err()
}

// checkMetrics compares the service's /metrics counters with the sum of
// every answer it served. For jobs that is the decision counters by
// value, as the CI smoke checks for one job; campaigns count
// repetitions, in total and per workload axis.
func checkMetrics(ctx context.Context, r *rig, campaigns bool, want [2]int64) error {
	text, err := r.client.Metrics(ctx)
	if err != nil {
		return err
	}
	if campaigns {
		series, err := counterSeries(text, "leanconsensus_campaign_instances_total")
		if err != nil {
			return err
		}
		var axes int64
		for labels, v := range series {
			if labels != "" {
				axes += v
			}
		}
		if total := want[0] + want[1]; series[""] != total || axes != total {
			return wrongf("/metrics campaign instances %d (%d by axis), answers sum to %d", series[""], axes, total)
		}
		return nil
	}
	series, err := counterSeries(text, "leanconsensus_decisions_total")
	if err != nil {
		return err
	}
	var got [2]int64
	for labels, v := range series {
		switch {
		case strings.Contains(labels, `value="0"`):
			got[0] += v
		case strings.Contains(labels, `value="1"`):
			got[1] += v
		}
	}
	if got != want {
		return wrongf("/metrics decisions %d/%d, answers sum to %d/%d", got[0], got[1], want[0], want[1])
	}
	return nil
}
