package main

import (
	"context"
	"errors"
	"fmt"
	"math/rand/v2"
	"runtime"
	"time"

	lc "leanconsensus"
	"leanconsensus/internal/arena"
	"leanconsensus/internal/campaign"
	"leanconsensus/internal/dist"
	"leanconsensus/internal/engine"
	"leanconsensus/internal/msgnet"
)

// The layer probes time each layer's public functions in process, with
// the service stopped, at the shapes the workloads drive them with.

// engineRows are the engine probes: model, n, and repetitions timed.
var engineRows = []struct {
	model string
	n     int
	reps  int
}{
	{"sched", 8, 2000},
	{"hybrid", 8, 2000},
	{"sched", 1000, 40},
	{"msgnet", 4, 100},
	{"msgnet", 8, 60},
}

// halfInputs is the paper's Figure 1 input assignment.
func halfInputs(n int) []int {
	in := make([]int, n)
	for i := n / 2; i < n; i++ {
		in[i] = 1
	}
	return in
}

// probeEngine times Model.Run on a pooled engine.NewSession, the path
// the arena's workers run. It returns the median µs per run, the mean
// ops per run, and the allocations per run.
func probeEngine(model string, n, reps int, rng *rand.Rand) (runUS, ops, allocs float64, err error) {
	m, err := engine.ByName(model)
	if err != nil {
		return 0, 0, 0, err
	}
	sess := engine.NewSession()
	spec := engine.Spec{Key: "probe", N: n, Inputs: halfInputs(n), Noise: dist.Exponential{MeanVal: 1}}
	for i := 0; i < 3; i++ { // warm the session's pools
		spec.Seed = rng.Uint64()
		if _, err := m.Run(spec, sess); err != nil {
			return 0, 0, 0, err
		}
	}
	times := make([]float64, reps)
	var opSum int64
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	for i := range times {
		spec.Seed = rng.Uint64()
		t0 := time.Now()
		res, err := m.Run(spec, sess)
		times[i] = float64(time.Since(t0)) / float64(time.Microsecond)
		if err != nil {
			return 0, 0, 0, err
		}
		opSum += res.Ops
	}
	runtime.ReadMemStats(&m1)
	return median(times), float64(opSum) / float64(reps), float64(m1.Mallocs-m0.Mallocs) / float64(reps), nil
}

// probeMsgsPerDecision is msgnet's messages sent per consensus decision
// (one per instance) at n processes, from a pooled msgnet.Sim.
func probeMsgsPerDecision(n, reps int, rng *rand.Rand) (float64, error) {
	sim := msgnet.NewSim()
	var msgs int64
	for i := 0; i < reps; i++ {
		res, err := sim.Run(msgnet.ConsensusConfig{Inputs: halfInputs(n),
			Delay: dist.Exponential{MeanVal: 1}, Seed: rng.Uint64()})
		if err != nil {
			return 0, err
		}
		msgs += res.Messages
	}
	return float64(msgs) / float64(reps), nil
}

// probeArenaNewClose is the median µs of arena.New plus Close at the
// service's pool shape — paid once per job spec.
func probeArenaNewClose(reps int) (float64, error) {
	m, err := engine.ByName("sched")
	if err != nil {
		return 0, err
	}
	times := make([]float64, reps)
	for i := range times {
		t0 := time.Now()
		a, err := arena.New(arena.Config{N: 8, Noise: dist.Exponential{MeanVal: 1}, Model: m, Seed: uint64(i)})
		if err != nil {
			return 0, err
		}
		if err := a.Close(); err != nil {
			return 0, err
		}
		times[i] = float64(time.Since(t0)) / float64(time.Microsecond)
	}
	return median(times), nil
}

// probeArenaSubmit is the wall µs per instance of the per-instance
// Submit path at bulk_jobs' shape (sched and hybrid, n=8), submitting
// through a window as the service does.
func probeArenaSubmit(instances int, rng *rand.Rand) (float64, error) {
	var total time.Duration
	for _, model := range []string{"sched", "hybrid"} {
		m, err := engine.ByName(model)
		if err != nil {
			return 0, err
		}
		seed := rng.Uint64()
		a, err := arena.New(arena.Config{N: 8, Noise: dist.Exponential{MeanVal: 1}, Model: m, Seed: seed})
		if err != nil {
			return 0, err
		}
		var failed error
		t0 := time.Now()
		err = submitJobWorkload(a, seed, instances, func(r arena.Result) {
			if r.Err != nil && failed == nil {
				failed = r.Err
			}
		})
		total += time.Since(t0)
		if err = errors.Join(err, failed); err != nil {
			return 0, err
		}
	}
	return float64(total) / float64(time.Microsecond) / float64(2*instances), nil
}

// internalSpec converts a public campaign spec to the internal one.
func internalSpec(s lc.CampaignSpec) campaign.Spec {
	return campaign.Spec{Name: s.Name, Models: s.Models, Dists: s.Dists, Adversaries: s.Adversaries,
		Ns: s.Ns, Seeds: s.Seeds, Reps: s.Reps}
}

// probeArenaCells is the wall µs per instance of the batched cell path
// (RunCells) over the campaign_sweep cells, at the default pool shape.
func probeArenaCells(specs []lc.CampaignSpec) (float64, error) {
	a, err := arena.New(arena.Config{})
	if err != nil {
		return 0, err
	}
	defer a.Close()
	var cells []campaign.Cell
	for _, s := range specs {
		c, err := internalSpec(s).Resolve()
		if err != nil {
			return 0, err
		}
		cells = append(cells, c.Cells...)
	}
	sinks := make([]campaign.CellStats, len(cells))
	var instances int64
	var failed error
	t0 := time.Now()
	err = a.RunCells(context.Background(), len(cells),
		func(i int) arena.CellRequest {
			job := cells[i].Job
			instances += int64(job.Instances)
			return arena.CellRequest{Model: job.Model, Key: cells[i].Key, N: job.N, Noise: job.Noise,
				Adversary: job.Adversary, Reps: job.Instances, Sink: &sinks[i],
				Seed: func(rep int) uint64 { return campaign.InstanceSeed(job.Seed, job.N, rep) }}
		},
		func(i int, r arena.CellResult) {
			if r.Errors != 0 && failed == nil {
				failed = r.FirstErr
			}
		})
	elapsed := time.Since(t0)
	if err == nil {
		err = failed
	}
	return float64(elapsed) / float64(time.Microsecond) / float64(instances), err
}

// probeCampaignDirect is the instances per second of (*Campaign).Run in
// process over the campaign_sweep grids: the service-free ceiling of the
// campaign_sweep throughput.
func probeCampaignDirect(specs []lc.CampaignSpec) (float64, error) {
	var instances int64
	t0 := time.Now()
	for _, s := range specs {
		rep, err := (&lc.Campaign{Spec: s}).Run(context.Background())
		if err != nil {
			return 0, err
		}
		if err := cleanReport(rep); err != nil {
			return 0, err
		}
		for _, c := range rep.Cells {
			instances += c.Reps
		}
	}
	return float64(instances) / time.Since(t0).Seconds(), nil
}

// runProbes runs every layer probe and adds its metrics to out.
func runProbes(seed uint64, out map[string]metric) error {
	rng := rand.New(rand.NewPCG(seed, 0x70726f6265)) // "probe"
	for _, row := range engineRows {
		runUS, ops, allocs, err := probeEngine(row.model, row.n, row.reps, rng)
		if err != nil {
			return fmt.Errorf("engine probe %s n=%d: %w", row.model, row.n, err)
		}
		key := fmt.Sprintf("engine.%s.n%d.", row.model, row.n)
		out[key+"run_us"] = metric{runUS, "us"}
		out[key+"ops"] = metric{ops, "count"}
		out[key+"allocs"] = metric{allocs, "count"}
	}
	msgs, err := probeMsgsPerDecision(8, 30, rng)
	if err != nil {
		return fmt.Errorf("msgnet messages probe: %w", err)
	}
	out["engine.msgnet.n8.msgs_per_decision"] = metric{msgs, "count"}
	newClose, err := probeArenaNewClose(200)
	if err != nil {
		return fmt.Errorf("arena New/Close probe: %w", err)
	}
	out["arena.new_close_us"] = metric{newClose, "us"}
	submit, err := probeArenaSubmit(20_000, rng)
	if err != nil {
		return fmt.Errorf("arena Submit probe: %w", err)
	}
	out["arena.submit_us_per_inst"] = metric{submit, "us"}
	specs := sweepSpecs(rng)
	cells, err := probeArenaCells(specs)
	if err != nil {
		return fmt.Errorf("arena RunCells probe: %w", err)
	}
	out["arena.cell_us_per_inst"] = metric{cells, "us"}
	direct, err := probeCampaignDirect(specs)
	if err != nil {
		return fmt.Errorf("campaign probe: %w", err)
	}
	out["campaign.direct_inst_per_s"] = metric{direct, "1/s"}
	return nil
}
