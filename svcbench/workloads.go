package main

import (
	"context"
	"fmt"
	"math/rand/v2"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	lc "leanconsensus"
)

// Workload shapes. The reasons for each choice are in README.md.
const (
	// smallRate is small_jobs' mean Poisson arrival rate (jobs/s): about
	// 40% of the measured knee on two cores.
	smallRate = 100
	// smallInstances and smallN size one small job.
	smallInstances, smallN = 100, 8
	// smallSeedPool is how many distinct job seeds small_jobs draws from,
	// so every distinct spec's reference is computed once up front.
	smallSeedPool = 64
	// smallWarm is small_jobs' warm-up window.
	smallWarm = 3 * time.Second

	// bulkInstances sizes each of bulk_jobs' two specs.
	bulkInstances = 100_000

	// fig1Seeds/fig1Reps and msgnetSeeds/msgnetReps shape campaign_sweep's
	// two grids: cell seeds per grid point and repetitions per cell.
	// Several seeds of few reps keep any one cell from becoming the
	// iteration's tail: msgnet's costliest cell (two-point, n=8) costs
	// ~30 ms a repetition.
	fig1Seeds, fig1Reps     = 2, 12
	msgnetSeeds, msgnetReps = 4, 8
)

// historyJobs is how many small jobs every warm-up serves before the
// workload's own operations, so that the restarts replay a service's
// history: its journal events and, with the state directory armed, one
// record per job.
const historyJobs = 500

// historyStream is the PCG stream the history's job seeds come from,
// apart from the workload's own inputs.
const historyStream = 0x686973746f7279 // "history"

// Per-operation deadlines: an operation without a final status by then
// counts as timed out.
const (
	smallTimeout    = 10 * time.Second
	bulkTimeout     = 60 * time.Second
	campaignTimeout = 60 * time.Second
)

// fig1Dists are the six interarrival distributions of the paper's
// Figure 1 (dist.Figure1), by registry name.
var fig1Dists = []string{"exponential", "uniform", "normal", "geometric", "two-point", "delayed"}

// call is one client call's interval.
type call struct{ start, end time.Time }

func (c call) dur() time.Duration { return c.end.Sub(c.start) }

// op is one workload operation: a small job, a bulk job, or one
// campaign-sweep iteration (two campaigns).
type op struct {
	tag string   // benchmark-side identity, known before submission
	ids []string // the service's job or campaign IDs

	due      time.Time // when the operation was scheduled to start
	sent     time.Time // when its first request went out
	received time.Time // when the last final status was in hand
	submits  []call    // the client's submit calls
	streams  []call    // the client's StreamJob/StreamCampaign calls

	decided [2]int64        // decisions by value in the checked answer
	results []lc.SpecResult // job spec results (jobs only)
	err     error
}

// latency is due→received.
func (o *op) latency() time.Duration { return o.received.Sub(o.due) }

// instances is the number of decided instances in the answer.
func (o *op) instances() int64 { return o.decided[0] + o.decided[1] }

// spanID is the ID the operation's spans share: its job ID, or its
// campaign IDs joined with "+".
func (o *op) spanID() string {
	if len(o.ids) == 0 {
		return o.tag
	}
	return strings.Join(o.ids, "+")
}

// tags mints operation tags.
var tagSeq atomic.Int64

func nextTag() string { return fmt.Sprintf("op-%06d", tagSeq.Add(1)) }

// workload is one traffic mix. New workloads derive every input — job
// seeds, the arrival schedule, campaign seeds — from the workload seed
// alone; the service receives only those generated inputs.
type workload interface {
	// drive runs the workload against r for window (a closed loop always
	// completes at least one operation) and returns its operations once
	// all have ended.
	drive(ctx context.Context, r *rig, window time.Duration) []*op
	// warmup is the window of the warm-up phase before the restarts.
	warmup() time.Duration
	// durableState reports whether the service runs with its state
	// directory armed (the journal directory always is).
	durableState() bool
}

// workloadNames lists the workloads in BENCHMARK.json order.
var workloadNames = []string{"small_jobs", "bulk_jobs", "campaign_sweep"}

// newWorkload generates name's inputs from seed and computes the
// references its answers are checked against.
func newWorkload(name string, seed uint64) (workload, error) {
	rng := rand.New(rand.NewPCG(seed, 0x73766362656e6368)) // "svcbench"
	switch name {
	case "small_jobs":
		return newSmallJobs(rng)
	case "bulk_jobs":
		return newBulkJobs(rng)
	case "campaign_sweep":
		return newCampaignSweep(rng)
	}
	return nil, fmt.Errorf("unknown workload %q (want one of %v)", name, workloadNames)
}

// smallJobs is an open loop of seeded Poisson arrivals, each one
// 100-instance sched job awaited with StreamJob.
type smallJobs struct {
	rng  *rand.Rand
	pool []lc.JobSpec
	refs references
}

func newSmallJobs(rng *rand.Rand) (*smallJobs, error) {
	w := &smallJobs{rng: rng, pool: make([]lc.JobSpec, smallSeedPool)}
	for i := range w.pool {
		w.pool[i] = lc.JobSpec{Model: "sched", Dist: "exponential", N: smallN,
			Seed: rng.Uint64(), Instances: smallInstances}
	}
	refs, err := jobReferences(w.pool)
	w.refs = refs
	return w, err
}

func (w *smallJobs) warmup() time.Duration { return smallWarm }

// durableState is off for small_jobs: its two state records per job,
// each written with a file and a directory fsync on the request path,
// would make the shared disk's fsync latency the measurement (see
// README.md).
func (w *smallJobs) durableState() bool { return false }

func (w *smallJobs) drive(ctx context.Context, r *rig, window time.Duration) []*op {
	var ops []*op
	var wg sync.WaitGroup
	start := time.Now()
	at := 0.0 // seconds since start
	for ctx.Err() == nil {
		at += w.rng.ExpFloat64() / smallRate
		if at >= window.Seconds() {
			break
		}
		spec := w.pool[w.rng.IntN(len(w.pool))]
		o := &op{tag: nextTag(), due: start.Add(time.Duration(at * float64(time.Second)))}
		time.Sleep(time.Until(o.due))
		ops = append(ops, o)
		wg.Add(1)
		go func() {
			defer wg.Done()
			runJob(ctx, r, o, []lc.JobSpec{spec}, w.refs, smallTimeout)
		}()
	}
	wg.Wait()
	return ops
}

// bulkJobs is a closed loop with one client; each job is one batch of a
// sched and a hybrid spec of bulkInstances each.
type bulkJobs struct {
	specs []lc.JobSpec
	refs  references
}

func newBulkJobs(rng *rand.Rand) (*bulkJobs, error) {
	w := &bulkJobs{specs: []lc.JobSpec{
		{Model: "sched", Dist: "exponential", N: 8, Seed: rng.Uint64(), Instances: bulkInstances},
		{Model: "hybrid", N: 8, Seed: rng.Uint64(), Instances: bulkInstances},
	}}
	refs, err := jobReferences(w.specs)
	w.refs = refs
	return w, err
}

func (w *bulkJobs) warmup() time.Duration { return 0 }

func (w *bulkJobs) durableState() bool { return true }

func (w *bulkJobs) drive(ctx context.Context, r *rig, window time.Duration) []*op {
	return closedLoop(ctx, window, func(o *op) { runJob(ctx, r, o, w.specs, w.refs, bulkTimeout) })
}

// campaignSweep is a closed loop with one client; each iteration submits
// the Figure 1 grid and a msgnet grid back to back and awaits both.
type campaignSweep struct {
	specs []lc.CampaignSpec
	// want holds each spec's reference report, as JSON.
	want [][]byte
}

// sweepSpecs derives campaign_sweep's two grids from rng.
func sweepSpecs(rng *rand.Rand) []lc.CampaignSpec {
	seeds := func(k int) []uint64 {
		s := make([]uint64, k)
		for i := range s {
			s[i] = rng.Uint64()
		}
		return s
	}
	return []lc.CampaignSpec{
		{Name: "fig1", Models: []string{"sched"}, Dists: fig1Dists,
			Ns: []int{10, 100, 1000}, Seeds: seeds(fig1Seeds), Reps: fig1Reps},
		{Name: "msgnet", Models: []string{"msgnet"}, Dists: fig1Dists,
			Ns: []int{4, 8}, Seeds: seeds(msgnetSeeds), Reps: msgnetReps},
	}
}

func newCampaignSweep(rng *rand.Rand) (*campaignSweep, error) {
	w := &campaignSweep{specs: sweepSpecs(rng)}
	for _, spec := range w.specs {
		want, err := campaignReference(spec)
		if err != nil {
			return nil, err
		}
		w.want = append(w.want, want)
	}
	return w, nil
}

func (w *campaignSweep) warmup() time.Duration { return 0 }

func (w *campaignSweep) durableState() bool { return true }

func (w *campaignSweep) drive(ctx context.Context, r *rig, window time.Duration) []*op {
	return closedLoop(ctx, window, func(o *op) { w.iterate(ctx, r, o) })
}

// iterate runs one sweep iteration: both submits back to back, then each
// campaign awaited in turn over one connection.
func (w *campaignSweep) iterate(ctx context.Context, r *rig, o *op) {
	ctx = context.WithValue(ctx, opKey{}, o.tag)
	ctx, cancel := context.WithTimeout(ctx, campaignTimeout)
	defer cancel()
	o.sent = time.Now()
	for _, spec := range w.specs {
		t0 := time.Now()
		id, err := r.client.SubmitCampaign(ctx, spec)
		o.submits = append(o.submits, call{t0, time.Now()})
		if err != nil {
			o.err = err
			return
		}
		o.ids = append(o.ids, id)
	}
	for i, id := range o.ids {
		t0 := time.Now()
		st, err := r.client.StreamCampaign(ctx, id, nil)
		o.received = time.Now()
		o.streams = append(o.streams, call{t0, o.received})
		if err != nil {
			o.err = err
			return
		}
		if o.err = checkCampaign(st, w.want[i], &o.decided); o.err != nil {
			return
		}
	}
}

// serveHistory runs historyJobs small jobs against r, nproc at a time,
// with their seeds generated from the workload seed.
func serveHistory(ctx context.Context, r *rig, seed uint64) ([]*op, error) {
	h, err := newSmallJobs(rand.New(rand.NewPCG(seed, historyStream)))
	if err != nil {
		return nil, err
	}
	ops := make([]*op, historyJobs)
	var next atomic.Int64
	var wg sync.WaitGroup
	for range runtime.NumCPU() {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := next.Add(1) - 1; i < historyJobs; i = next.Add(1) - 1 {
				o := &op{tag: nextTag(), due: time.Now()}
				runJob(ctx, r, o, []lc.JobSpec{h.pool[int(i)%len(h.pool)]}, h.refs, smallTimeout)
				ops[i] = o
			}
		}()
	}
	wg.Wait()
	return ops, nil
}

// closedLoop runs one operation after another until window has passed,
// always at least one.
func closedLoop(ctx context.Context, window time.Duration, run func(*op)) []*op {
	var ops []*op
	start := time.Now()
	for {
		o := &op{tag: nextTag(), due: time.Now()}
		run(o)
		ops = append(ops, o)
		if time.Since(start) >= window || ctx.Err() != nil {
			return ops
		}
	}
}

// runJob submits one job batch and awaits it with StreamJob, the
// documented wait path, then checks the answer.
func runJob(ctx context.Context, r *rig, o *op, specs []lc.JobSpec, refs references, timeout time.Duration) {
	ctx = context.WithValue(ctx, opKey{}, o.tag)
	ctx, cancel := context.WithTimeout(ctx, timeout)
	defer cancel()
	o.sent = time.Now()
	id, err := r.client.SubmitJobs(ctx, specs...)
	o.submits = append(o.submits, call{o.sent, time.Now()})
	if err != nil {
		o.err = err
		return
	}
	o.ids = []string{id}
	t0 := time.Now()
	st, err := r.client.StreamJob(ctx, id, nil)
	o.received = time.Now()
	o.streams = append(o.streams, call{t0, o.received})
	if err != nil {
		o.err = err
		return
	}
	o.err = checkJob(st, specs, refs, o)
}
