package msgnet_test

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"testing"

	"leanconsensus/internal/dist"
	"leanconsensus/internal/msgnet"
	"leanconsensus/internal/trace"
)

// TestSimOutcomeDigests pins Sim.Run's outcomes, and on odd seeds its
// whole traced schedule, across the configurations the event loop must
// order identically: a live minority crashed from the start, the
// combined protocol (RMax > 0), a deterministic per-link delay, and
// two-point delays whose sums produce exact delivery-time ties that only
// the (time, sequence) tie-break orders. One Sim serves every run, so
// the pooled reset path between differently shaped configurations is
// pinned too. The digests were recorded from the binary event heap of
// 48-byte event structs and the map-backed replica stores, before the
// event queue became a key heap over a message slab; any change to any
// outcome or event fails here.
func TestSimOutcomeDigests(t *testing.T) {
	const seeds = 10
	delays := []struct {
		name string
		d    dist.Distribution
	}{
		{"exponential", dist.Exponential{MeanVal: 1}},
		{"uniform", dist.Uniform{Lo: 0, Hi: 2}},
		{"two-point", dist.TwoPoint{A: 1, B: 2}},
	}
	// Link delays are multiples of 0.5, so two-point runs keep their
	// exact ties.
	link := func(from, to int) float64 { return float64((from*7+to*3)%4) * 0.5 }
	cases := []struct {
		n    int
		want string
	}{
		{3, "6db838780f94ed48"},
		{4, "c98a375c8ef18d65"},
		{5, "0380bca765bf5e3c"},
		{8, "2dca1c9d2a424440"},
	}
	sim := msgnet.NewSim()
	rec := trace.NewRecorder(1 << 14)
	var events []trace.Event
	for _, c := range cases {
		t.Run(fmt.Sprintf("n%d", c.n), func(t *testing.T) {
			h := fnv.New64a()
			var buf [8]byte
			put := func(v uint64) {
				binary.LittleEndian.PutUint64(buf[:], v)
				h.Write(buf[:])
			}
			var crash []int
			for i := 0; len(crash) < (c.n-1)/2; i += 2 {
				crash = append(crash, i)
			}
			inputs := make([]int, c.n)
			for _, d := range delays {
				for _, variant := range []string{"plain", "crash", "rmax", "link"} {
					for seed := uint64(0); seed < seeds; seed++ {
						for i := range inputs {
							inputs[i] = int((seed * 0x9e3779b97f4a7c15 >> (i % 64)) & 1)
						}
						cfg := msgnet.ConsensusConfig{Inputs: inputs, Delay: d.d, Seed: seed}
						switch variant {
						case "crash":
							cfg.Crash = crash
						case "rmax":
							cfg.RMax = 2
						case "link":
							cfg.LinkDelay = link
						}
						if seed%2 == 1 {
							rec.Reset()
							cfg.Trace = rec
						}
						res, err := sim.Run(cfg)
						if err != nil {
							h.Write([]byte(err.Error()))
							continue
						}
						put(uint64(res.Value))
						for _, dec := range res.Decisions {
							put(uint64(dec))
						}
						put(uint64(res.Rounds))
						put(uint64(res.RegisterOps))
						put(uint64(res.Messages))
						put(math.Float64bits(res.Time))
						if cfg.Trace != nil {
							put(uint64(rec.Total()))
							events = rec.AppendTo(events[:0])
							for _, e := range events {
								put(math.Float64bits(e.Time))
								put(uint64(e.Step))
								put(uint64(e.Proc)<<32 | uint64(uint32(e.Round)))
								put(uint64(e.Value)<<32 | uint64(e.Kind))
							}
						}
					}
				}
			}
			if got := fmt.Sprintf("%016x", h.Sum64()); got != c.want {
				t.Errorf("digest over %d runs = %s, want %s", len(delays)*4*seeds, got, c.want)
			}
		})
	}
}
