package arena_test

import (
	"encoding/json"
	"errors"
	"fmt"
	"sync/atomic"
	"testing"

	"leanconsensus/internal/arena"
	"leanconsensus/internal/metrics"
)

// proposalKey and proposalBit derive a test workload: keys in the
// job path's format, bits mixed so both decisions occur.
func proposalKey(i int) string { return fmt.Sprintf("key-%08d", i) }
func proposalBit(i int) int    { return (i*7 + i/3) % 2 }

// observedArena is an arena with every per-instance observer armed:
// metrics stripes, OnServe per-shard counts, and the flight recorder.
type observedArena struct {
	a       *arena.Arena
	m       *arena.Metrics
	onServe []atomic.Int64
}

func newObservedArena(t *testing.T, shards, workers int) *observedArena {
	t.Helper()
	o := &observedArena{
		m:       arena.NewMetrics(metrics.NewRegistry(), "model", "sched"),
		onServe: make([]atomic.Int64, shards),
	}
	a, err := arena.New(arena.Config{
		Shards: shards, Workers: workers, Seed: 11, Metrics: o.m,
		Trace:   &arena.TraceConfig{PerShard: 2},
		OnServe: func(r arena.Result) { o.onServe[r.Shard].Add(1) },
	})
	if err != nil {
		t.Fatal(err)
	}
	o.a = a
	return o
}

// TestRunProposalsMatchesSubmit: derived batches serve every proposal
// exactly as Submit would — the same per-shard and total Stats, one
// OnServe call and one latency observation per instance, the same trace
// captures — for counts on both sides of the batch size and across pool
// shapes, and the batch stats RunProposals hands back sum to the totals.
// Batches shrink below ProposalBatchSize when count cannot give every
// worker a full one (1000 at 8×2 is about 125 per shard, 63 per batch),
// so no worker of a shard idles while another serves the whole shard.
func TestRunProposalsMatchesSubmit(t *testing.T) {
	B := arena.ProposalBatchSize
	for _, shape := range [][2]int{{1, 1}, {4, 2}, {8, 2}} {
		for _, count := range []int{1, 7, B - 1, B, B + 1, 1000, 3000} {
			workers := shape[0] * shape[1]
			size := max(1, min(B, (count+workers-1)/workers))
			t.Run(fmt.Sprintf("%dx%d/%d", shape[0], shape[1], count), func(t *testing.T) {
				ref := newObservedArena(t, shape[0], shape[1])
				chans := make([]<-chan arena.Result, count)
				for i := range chans {
					var err error
					if chans[i], err = ref.a.Submit(proposalKey(i), proposalBit(i)); err != nil {
						t.Fatal(err)
					}
				}
				for _, ch := range chans {
					<-ch
				}
				ref.a.Close()

				got := newObservedArena(t, shape[0], shape[1])
				var folded arena.ShardStats
				batches := 0
				err := got.a.RunProposals(count,
					func(i int) (string, int) { return proposalKey(i), proposalBit(i) },
					func(st arena.ShardStats) {
						batches++
						if st.Proposals > int64(size) {
							t.Errorf("batch of %d proposals, want at most %d", st.Proposals, size)
						}
						folded.Proposals += st.Proposals
						folded.Decided[0] += st.Decided[0]
						folded.Decided[1] += st.Decided[1]
						folded.Errors += st.Errors
						folded.Ops += st.Ops
						folded.RoundSum += st.RoundSum
						folded.MaxRound = max(folded.MaxRound, st.MaxRound)
					})
				if err != nil {
					t.Fatal(err)
				}
				got.a.Close()

				want, have := ref.a.Stats(), got.a.Stats()
				if have.Totals != want.Totals {
					t.Errorf("totals = %+v, want %+v", have.Totals, want.Totals)
				}
				if folded != want.Totals {
					t.Errorf("folded batch stats = %+v, want %+v", folded, want.Totals)
				}
				for s := range want.PerShard {
					if have.PerShard[s] != want.PerShard[s] {
						t.Errorf("shard %d stats = %+v, want %+v", s, have.PerShard[s], want.PerShard[s])
					}
					if g, w := got.onServe[s].Load(), ref.onServe[s].Load(); g != w {
						t.Errorf("shard %d OnServe calls = %d, want %d", s, g, w)
					}
				}
				if least := (count + size - 1) / size; batches < least {
					t.Errorf("%d batches for %d proposals, want at least %d", batches, count, least)
				}
				if c := got.m.Latency.Count(); c != int64(count) {
					t.Errorf("latency observations = %d, want one per instance (%d)", c, count)
				}
				if q := got.m.Queued.Value(); q != 0 {
					t.Errorf("queued gauge = %d after drain, want 0", q)
				}
				wantTr, _ := json.Marshal(ref.a.Traces())
				haveTr, _ := json.Marshal(got.a.Traces())
				if string(haveTr) != string(wantTr) {
					t.Errorf("trace captures differ:\n got %s\nwant %s", haveTr, wantTr)
				}
			})
		}
	}
}

// TestRunProposalsErrors: a bad bit stops submission and is returned
// after the batches already in flight are delivered; a closed arena
// serves nothing and returns ErrClosed.
func TestRunProposalsErrors(t *testing.T) {
	a, err := arena.New(arena.Config{Shards: 1, Workers: 1, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	B := arena.ProposalBatchSize
	var served int64
	err = a.RunProposals(3*B, func(i int) (string, int) {
		if i == 2*B+5 {
			return proposalKey(i), 2
		}
		return proposalKey(i), 0
	}, func(st arena.ShardStats) { served += st.Proposals })
	if err == nil {
		t.Fatal("bit 2 accepted")
	}
	if served != int64(2*B) {
		t.Errorf("served %d proposals before the bad bit, want the %d in full batches", served, 2*B)
	}
	a.Close()

	served = 0
	err = a.RunProposals(10, func(i int) (string, int) { return proposalKey(i), 1 },
		func(st arena.ShardStats) { served += st.Proposals })
	if !errors.Is(err, arena.ErrClosed) {
		t.Errorf("RunProposals after Close = %v, want ErrClosed", err)
	}
	if served != 0 {
		t.Errorf("closed arena served %d proposals", served)
	}
}
