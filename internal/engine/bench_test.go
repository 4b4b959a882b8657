package engine_test

import (
	"testing"

	"leanconsensus/internal/dist"
	"leanconsensus/internal/engine"
	"leanconsensus/internal/trace"
)

// TestMsgnetPooledAllocs guards the msgnet session pooling win: a pooled
// session retains the ABD nodes, replica stores, machines, event queue
// and message slab, RNG streams, and the message-payload pool (requests
// refcounted across their n broadcast deliveries, responses released on
// receipt), so a warm run allocates almost nothing — about 2 per run in
// BenchmarkEngineSession's msgnet/pooled, against about 200 on the fresh
// path. The bound leaves room for pool growth when a seed draws an
// unusually long schedule, nothing more.
func TestMsgnetPooledAllocs(t *testing.T) {
	if avg := msgnetPooledAllocs(t, nil); avg > 50 {
		t.Fatalf("pooled msgnet run allocates %.0f times, want <= 50 (pooling regressed?)", avg)
	}
}

// TestMsgnetTracedPooledAllocs is the same guard with the flight
// recorder armed: the ABD nodes read the network's clock through a
// pointer, so tracing must add no per-node allocation. The bound is the
// untraced count measured alongside plus one, well below the n = 8 a
// per-node cost would add.
func TestMsgnetTracedPooledAllocs(t *testing.T) {
	plain := msgnetPooledAllocs(t, nil)
	if avg := msgnetPooledAllocs(t, trace.NewRecorder(0)); avg > plain+1 {
		t.Fatalf("traced pooled msgnet run allocates %.1f times, untraced %.1f", avg, plain)
	}
}

// msgnetPooledAllocs reports the average allocations of a warm pooled
// msgnet run at n = 8, with rec (when non-nil) armed and reset per run
// as the arena does.
func msgnetPooledAllocs(t *testing.T, rec *trace.Recorder) float64 {
	t.Helper()
	m, err := engine.ByName("msgnet")
	if err != nil {
		t.Fatal(err)
	}
	sess := engine.NewSession()
	if rec != nil {
		sess.SetTrace(rec)
	}
	inputs := []int{0, 1, 0, 1, 0, 1, 0, 1}
	spec := engine.Spec{
		Key:    "alloc-guard",
		N:      len(inputs),
		Inputs: inputs,
		Noise:  dist.Exponential{MeanVal: 1},
	}
	seed := uint64(0)
	run := func() {
		seed++
		spec.Seed = seed
		if rec != nil {
			rec.Reset()
		}
		if _, err := m.Run(spec, sess); err != nil {
			t.Fatal(err)
		}
	}
	run() // warm the pools
	return testing.AllocsPerRun(20, run)
}

// TestHybridPooledAllocs guards the hybrid model's pooled runner: the
// session keeps the scheduler state, the result, the adversary's view
// snapshots and the default priority and quantum slices between runs,
// so a warm run allocates almost nothing (it was 17 allocations per run
// before the runner was pooled).
func TestHybridPooledAllocs(t *testing.T) {
	m, err := engine.ByName("hybrid")
	if err != nil {
		t.Fatal(err)
	}
	sess := engine.NewSession()
	inputs := []int{0, 1, 0, 1, 0, 1, 0, 1}
	spec := engine.Spec{Key: "alloc-guard", N: len(inputs), Inputs: inputs}
	seed := uint64(0)
	run := func() {
		seed++
		spec.Seed = seed
		if _, err := m.Run(spec, sess); err != nil {
			t.Fatal(err)
		}
	}
	run() // warm the buffers
	if avg := testing.AllocsPerRun(100, run); avg > 2 {
		t.Fatalf("pooled hybrid run allocates %.1f times, want <= 2 (runner pooling regressed?)", avg)
	}
}

// BenchmarkEngineSession quantifies the Session's allocation win: the
// pooled sub-benchmarks reuse one worker session across iterations (the
// arena's steady state), the fresh ones pay the per-run setup cost.
// Compare allocs/op between the pairs.
func BenchmarkEngineSession(b *testing.B) {
	noise := dist.Exponential{MeanVal: 1}
	for _, name := range []string{"sched", "hybrid", "msgnet"} {
		m, err := engine.ByName(name)
		if err != nil {
			b.Fatal(err)
		}
		run := func(b *testing.B, sess *engine.Session) {
			inputs := []int{0, 1, 0, 1, 0, 1, 0, 1}
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				spec := engine.Spec{
					Key:    "bench",
					N:      len(inputs),
					Inputs: inputs,
					Noise:  noise,
					Seed:   uint64(i),
				}
				if _, err := m.Run(spec, sess); err != nil {
					b.Fatal(err)
				}
			}
		}
		b.Run(name+"/pooled", func(b *testing.B) { run(b, engine.NewSession()) })
		b.Run(name+"/fresh", func(b *testing.B) { run(b, nil) })
		// The tracing dimension: a pooled session with the flight recorder
		// armed (reset per instance, as the arena does). The disabled path
		// above is the 0-allocs baseline this one is compared against.
		b.Run(name+"/traced", func(b *testing.B) {
			sess := engine.NewSession()
			rec := trace.NewRecorder(0)
			sess.SetTrace(rec)
			inputs := []int{0, 1, 0, 1, 0, 1, 0, 1}
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				rec.Reset()
				spec := engine.Spec{
					Key:    "bench",
					N:      len(inputs),
					Inputs: inputs,
					Noise:  noise,
					Seed:   uint64(i),
				}
				if _, err := m.Run(spec, sess); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
