package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"sync"
	"sync/atomic"
	"time"

	"leanconsensus/internal/api"
	"leanconsensus/internal/arena"
	"leanconsensus/internal/engine"
	"leanconsensus/internal/obslog"
	"leanconsensus/internal/xrand"
)

// specRun is one spec's execution state inside a job. Progress fields
// are atomics written from arena workers (via OnServe) and read by
// status snapshots and the SSE stream without locks.
type specRun struct {
	spec   engine.JobSpec
	job    engine.Job
	traceK int // per-shard flight-recorder budget, 0 = off

	done     atomic.Int64
	perShard []atomic.Int64

	mu     sync.Mutex
	result *api.SpecResult
	traces []api.TraceInstance
}

// job is one admitted batch.
type job struct {
	admitted
	specs []*specRun

	// submit is the original request body (durable state only): it is
	// what the job's state record stores, and what a successor process
	// re-decodes to re-run interrupted work.
	submit []byte
}

// jobKind describes jobs to the shared lifecycle.
var jobKind = kind{
	noun: "job", prefix: "j", dir: "jobs", what: "job batches",
	admitEvent: obslog.KindJobAdmit, startEvent: obslog.KindJobStart, doneEvent: obslog.KindJobDone,
	decode:    decodeJob,
	blank:     func() work { return &job{} },
	bodyField: func(r *record) *json.RawMessage { return &r.Submit },
}

// decodeJob buffers and decodes a POST /v1/jobs body. With durable
// state armed the body is kept: it becomes the record's stored submit,
// re-decoded through this same path if a crash forces a re-run.
func decodeJob(s *Server, r io.Reader, maxBatch int) (work, error) {
	body, err := io.ReadAll(r)
	if err != nil {
		return nil, fmt.Errorf("server: bad request body: %v", err)
	}
	batch, err := DecodeSubmit(bytes.NewReader(body), maxBatch)
	if err != nil {
		return nil, err
	}
	j := newJob(batch, s.cfg.Shards)
	if s.state != nil {
		j.submit = body
	}
	return j, nil
}

// newJob builds the bookkeeping for one decoded batch.
func newJob(batch *Batch, shards int) *job {
	j := &job{specs: make([]*specRun, len(batch.Jobs))}
	for i := range batch.Jobs {
		j.specs[i] = &specRun{
			spec:     batch.Specs[i],
			job:      batch.Jobs[i],
			traceK:   batch.TraceK,
			perShard: make([]atomic.Int64, shards),
		}
	}
	return j
}

// instances sums the batch's instance counts.
func (j *job) instances() int64 {
	var t int64
	for _, sr := range j.specs {
		t += int64(sr.job.Instances)
	}
	return t
}

func (j *job) payload() json.RawMessage { return j.submit }

// admitLabels puts a single-spec batch's (the common case) workload axes
// on the admit event; multi-spec batches carry them per spec via
// metrics.
func (j *job) admitLabels() obslog.Labels {
	if len(j.specs) != 1 {
		return obslog.Labels{}
	}
	jb := j.specs[0].job
	return obslog.Labels{Model: jb.ModelName, Dist: jb.DistName, Adversary: jb.AdvName, N: jb.N}
}

// snapshot assembles the wire status from the live counters.
func (j *job) snapshot() any {
	st := api.JobStatus{
		ID:      j.id,
		Status:  j.statusName(),
		Created: j.created,
		Tenant:  j.tenant,
		Specs:   make([]api.SpecStatus, len(j.specs)),
		Error:   j.errText(),
	}
	for i, sr := range j.specs {
		ss := api.SpecStatus{
			Spec:      sr.spec,
			Instances: sr.job.Instances,
			Done:      sr.done.Load(),
			PerShard:  make([]int64, len(sr.perShard)),
		}
		for s := range sr.perShard {
			ss.PerShard[s] = sr.perShard[s].Load()
		}
		sr.mu.Lock()
		if sr.result != nil {
			r := *sr.result
			ss.Result = &r
		}
		sr.mu.Unlock()
		st.Specs[i] = ss
	}
	return st
}

// execute runs every spec of the job, in order, on its own arenas;
// finished instances return their reservation units to the admission
// gate as each derived batch completes.
func (j *job) execute(s *Server) error {
	var failed error
	for _, sr := range j.specs {
		if err := s.runSpec(j, sr); err != nil && failed == nil {
			failed = err
		}
	}
	return failed
}

// runSpec serves one spec on its own arena and folds the results into
// its SpecResult. The workload derivation — keys "key-%08d", proposal
// bits from the seed's "load" stream, drawn in index order — matches
// cmd/leanarena exactly, so a job replays byte-identically against the
// CLI's deterministic report.
//
// The proposals run as derived batches (arena.RunProposals): each
// shard's proposals are collected, in index order, into batches that one
// worker serves in one loop, so the queue hop, request, hand-back and
// fold are paid per batch, not per instance. That keeps leanarena's
// byte-identity: every proposal is served on the shard its key routes
// to, through the same derived-spec body as Submit, so outcomes,
// PerShard, arena Stats, the drain count and trace captures are the
// per-instance path's; and per-instance observation (the latency
// histogram, OnServe's live progress, the flight recorder) still
// happens once per instance. A bounded window of outstanding batches
// keeps memory independent of Instances.
func (s *Server) runSpec(j *job, sr *specRun) error {
	jb := sr.job
	am := arena.NewMetrics(s.reg, "model", jb.ModelName, "dist", jb.DistName, "adversary", jb.AdvName)
	var tc *arena.TraceConfig
	if sr.traceK > 0 {
		tc = &arena.TraceConfig{PerShard: sr.traceK}
	}
	a, err := arena.New(arena.Config{
		Trace:     tc,
		Shards:    s.cfg.Shards,
		Workers:   s.cfg.Workers,
		N:         jb.N,
		Noise:     jb.Noise,
		Model:     jb.Model,
		Adversary: jb.Adversary,
		Seed:      jb.Seed,
		Metrics:   am,
		Journal:   s.journal,
		Owner:     j.id,
		OnServe: func(r arena.Result) {
			if r.Shard >= 0 && r.Shard < len(sr.perShard) {
				sr.perShard[r.Shard].Add(1)
			}
			sr.done.Add(1)
		},
	})
	if err != nil {
		s.release(j.tb, int64(jb.Instances))
		return fmt.Errorf("server: job spec (model=%s): %v", jb.ModelName, err)
	}

	res := api.SpecResult{
		Model:     jb.ModelName,
		Variant:   jb.VariantName,
		Dist:      jb.DistName,
		Adversary: jb.AdvName,
		N:         jb.N,
		Seed:      jb.Seed,
		Instances: jb.Instances,
	}
	var served int64
	start := time.Now()
	bits := xrand.New(jb.Seed, 0x6c6f6164) // "load", the leanarena stream
	err = a.RunProposals(jb.Instances,
		func(i int) (string, int) { return fmt.Sprintf("key-%08d", i), bits.Intn(2) },
		func(st arena.ShardStats) {
			res.Errors += st.Errors
			res.Decided0 += st.Decided[0]
			res.Decided1 += st.Decided[1]
			res.Ops += st.Ops
			res.RoundSum += st.RoundSum
			if st.MaxRound > res.MaxRound {
				res.MaxRound = st.MaxRound
			}
			served += st.Proposals
			s.complete(j.tb, st.Proposals)
		})
	elapsed := time.Since(start)
	if err != nil {
		// Unreachable while the server owns the arena: return the
		// never-served remainder's reservation and surface the fault.
		a.Close()
		s.release(j.tb, int64(jb.Instances)-served)
		return fmt.Errorf("server: submit failed mid-job: %v", err)
	}
	if err := a.Close(); err != nil {
		return err
	}

	if decided := res.Decided0 + res.Decided1; decided > 0 {
		res.MeanFirstRound = float64(res.RoundSum) / float64(decided)
		res.Throughput = float64(decided) / elapsed.Seconds()
	}
	res.ElapsedMS = float64(elapsed) / float64(time.Millisecond)

	sr.mu.Lock()
	sr.result = &res
	if tc != nil {
		sr.traces = api.Traces(a.Traces())
	}
	sr.mu.Unlock()
	return nil
}

// traceSnapshot assembles the GET /v1/jobs/{id}/trace body. Captures are
// stored once per spec when its arena closes; an unfinished spec simply
// contributes an empty block.
func (j *job) traceSnapshot() api.JobTraces {
	jt := api.JobTraces{
		ID:     j.id,
		Status: j.statusName(),
		Specs:  make([]api.SpecTrace, len(j.specs)),
	}
	for i, sr := range j.specs {
		st := api.SpecTrace{Spec: sr.spec}
		sr.mu.Lock()
		st.Trace = sr.traces
		sr.mu.Unlock()
		jt.Specs[i] = st
	}
	return jt
}
