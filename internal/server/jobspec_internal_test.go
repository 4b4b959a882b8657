package server

import (
	"encoding/json"
	"fmt"
	"strings"
	"testing"
	"time"

	"leanconsensus/internal/arena"
	"leanconsensus/internal/obslog"
	"leanconsensus/internal/xrand"
)

// specReference is what a job spec must produce, computed the way the
// job path ran before derived batches: one a.Submit per instance, keys
// fmt.Sprintf("key-%08d", i), bits from the seed's "load" stream.
type specReference struct {
	result   SpecResult // deterministic fields only
	perShard []int64
	traces   []byte // JSON of the arena's trace captures
	drain    int64  // the arena.drain event's proposal count
}

func submitReference(t *testing.T, batch *Batch, shards, workers int) specReference {
	t.Helper()
	jb := batch.Jobs[0]
	var tc *arena.TraceConfig
	if batch.TraceK > 0 {
		tc = &arena.TraceConfig{PerShard: batch.TraceK}
	}
	journal := obslog.New(64)
	a, err := arena.New(arena.Config{
		Trace: tc, Shards: shards, Workers: workers, N: jb.N, Noise: jb.Noise,
		Model: jb.Model, Adversary: jb.Adversary, Seed: jb.Seed, Journal: journal,
	})
	if err != nil {
		t.Fatal(err)
	}
	ref := specReference{
		result: SpecResult{
			Model: jb.ModelName, Variant: jb.VariantName, Dist: jb.DistName, Adversary: jb.AdvName,
			N: jb.N, Seed: jb.Seed, Instances: jb.Instances,
		},
		perShard: make([]int64, shards),
	}
	bits := xrand.New(jb.Seed, 0x6c6f6164) // "load"
	chans := make([]<-chan arena.Result, jb.Instances)
	for i := range chans {
		if chans[i], err = a.Submit(fmt.Sprintf("key-%08d", i), bits.Intn(2)); err != nil {
			t.Fatal(err)
		}
	}
	r := &ref.result
	for _, ch := range chans {
		res := <-ch
		ref.perShard[res.Shard]++
		if res.Err != nil {
			r.Errors++
			continue
		}
		if res.Value == 0 {
			r.Decided0++
		} else {
			r.Decided1++
		}
		r.Ops += res.Ops
		r.RoundSum += int64(res.FirstRound)
		r.MaxRound = max(r.MaxRound, res.LastRound)
	}
	a.Close()
	if d := r.Decided0 + r.Decided1; d > 0 {
		r.MeanFirstRound = float64(r.RoundSum) / float64(d)
	}
	if ref.traces, err = json.Marshal(a.Traces()); err != nil {
		t.Fatal(err)
	}
	ref.drain = drainCount(t, journal)
	return ref
}

// drainCount returns the Count label of the journal's last arena.drain.
func drainCount(t *testing.T, j *obslog.Journal) int64 {
	t.Helper()
	events, _ := j.Since(0, nil)
	for i := len(events) - 1; i >= 0; i-- {
		if events[i].Kind == obslog.KindArenaDrain {
			return events[i].Labels.Count
		}
	}
	t.Fatal("no arena.drain event")
	return 0
}

// TestRunSpecMatchesSubmit is the derived-batch job path's equivalence
// check: across models, adversaries, pool shapes and instance counts on
// both sides of the batch size, runSpec must produce exactly what
// per-instance Submit produces from the same seed — every deterministic
// SpecResult field, the live PerShard progress, the arena's drain count,
// and byte-identical trace captures. (Arena Stats equality is pinned one
// layer down, by the arena's own RunProposals test.)
func TestRunSpecMatchesSubmit(t *testing.T) {
	B := arena.ProposalBatchSize
	counts := []int{1, 7, B - 1, B + 1, 10_000}
	type axis struct{ model, adversary string }
	axes := []axis{
		{"sched", ""}, {"sched", "antileader:m=2"},
		{"hybrid", ""}, {"hybrid", "antileader"},
		{"msgnet", ""},
	}
	for _, shape := range [][2]int{{1, 1}, {4, 2}, {8, 2}} {
		for _, ax := range axes {
			for _, count := range counts {
				n := 8
				if ax.model == "msgnet" {
					n = 4
				}
				// The 10k runs cover the zero schedule of the cheap
				// models; msgnet costs ~100× a sched instance.
				if count > B+1 && (ax.adversary != "" || ax.model == "msgnet") {
					continue
				}
				name := fmt.Sprintf("%dx%d/%s/%s/%d", shape[0], shape[1], ax.model, ax.adversary, count)
				t.Run(name, func(t *testing.T) {
					body := fmt.Sprintf(`{"jobs":[{"model":%q,"adversary":%q,"n":%d,"seed":%d,"instances":%d}],"trace":2}`,
						ax.model, ax.adversary, n, 1000+count, count)
					checkRunSpec(t, body, shape[0], shape[1])
				})
			}
		}
	}
}

func checkRunSpec(t *testing.T, body string, shards, workers int) {
	t.Helper()
	batch, err := DecodeSubmit(strings.NewReader(body), 0)
	if err != nil {
		t.Fatal(err)
	}
	want := submitReference(t, batch, shards, workers)

	s, err := New(Config{Shards: shards, Workers: workers})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	j := newJob(batch, shards)
	sr := j.specs[0]
	if err := s.runSpec(j, sr); err != nil {
		t.Fatal(err)
	}
	got := *sr.result
	got.Throughput, got.ElapsedMS = 0, 0 // wall-clock fields
	if got != want.result {
		t.Errorf("SpecResult\n got %+v\nwant %+v", got, want.result)
	}
	for i := range sr.perShard {
		if v := sr.perShard[i].Load(); v != want.perShard[i] {
			t.Errorf("PerShard[%d] = %d, want %d", i, v, want.perShard[i])
		}
	}
	if d := sr.done.Load(); d != int64(batch.Jobs[0].Instances) {
		t.Errorf("Done = %d, want %d", d, batch.Jobs[0].Instances)
	}
	traces, err := json.Marshal(sr.traces)
	if err != nil {
		t.Fatal(err)
	}
	if string(traces) != string(want.traces) {
		t.Errorf("trace captures differ:\n got %s\nwant %s", traces, want.traces)
	}
	if d := drainCount(t, s.journal); d != want.drain {
		t.Errorf("arena.drain count = %d, want %d", d, want.drain)
	}
}

// BenchmarkJobSpec times runSpec at the bulk_jobs shape — an 8×2 pool
// serving one 100k-instance n=8 spec per op — and reports the spec's
// instance rate.
func BenchmarkJobSpec(b *testing.B) {
	for _, model := range []string{"sched", "hybrid"} {
		b.Run(model, func(b *testing.B) {
			const instances = 100_000
			batch, err := DecodeSubmit(strings.NewReader(
				fmt.Sprintf(`{"jobs":[{"model":%q,"n":8,"seed":7,"instances":%d}]}`, model, instances)), 0)
			if err != nil {
				b.Fatal(err)
			}
			s, err := New(Config{Shards: arena.DefaultShards, Workers: arena.DefaultWorkers})
			if err != nil {
				b.Fatal(err)
			}
			defer s.Close()
			b.ReportAllocs()
			b.ResetTimer()
			start := time.Now()
			for i := 0; i < b.N; i++ {
				j := newJob(batch, arena.DefaultShards)
				if err := s.runSpec(j, j.specs[0]); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(b.N*instances)/time.Since(start).Seconds(), "inst/s")
		})
	}
}
