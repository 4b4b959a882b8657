package engine_test

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"testing"

	"leanconsensus/internal/dist"
	"leanconsensus/internal/engine"
	"leanconsensus/internal/trace"
)

// outcomeDigest runs seeds [0, seeds) of one model at one N on a single
// pooled session and folds every outcome — value, decision rounds, ops,
// simulated time (as raw bits) and any error text — into one FNV-1a
// digest. Inputs vary with the seed so both unanimous and split starts
// are covered. With traced set, the session's flight recorder is armed
// and every recorded event is folded in too, so the digest pins the
// whole schedule, not just its outcome: the hybrid model's outcome is
// only (value, ops), which many different schedules share.
func outcomeDigest(t *testing.T, model, adversary string, n, seeds int, traced bool) string {
	t.Helper()
	m, err := engine.ByName(model)
	if err != nil {
		t.Fatal(err)
	}
	adv, err := engine.ResolveAdversary(adversary)
	if err != nil {
		t.Fatal(err)
	}
	sess := engine.NewSession()
	var rec *trace.Recorder
	var events []trace.Event
	if traced {
		rec = trace.NewRecorder(1 << 14)
		sess.SetTrace(rec)
	}
	inputs := make([]int, n)
	h := fnv.New64a()
	var buf [8]byte
	put := func(v uint64) {
		binary.LittleEndian.PutUint64(buf[:], v)
		h.Write(buf[:])
	}
	for seed := 0; seed < seeds; seed++ {
		for i := range inputs {
			inputs[i] = int((uint64(seed) * 0x9e3779b97f4a7c15 >> (i % 64)) & 1)
		}
		if rec != nil {
			rec.Reset()
		}
		r, err := m.Run(engine.Spec{
			Key: "digest", N: n, Inputs: inputs, Noise: dist.Exponential{MeanVal: 1},
			Adversary: adv, Seed: uint64(seed),
		}, sess)
		if err != nil {
			h.Write([]byte(err.Error()))
			continue
		}
		put(uint64(r.Value))
		put(uint64(r.FirstRound))
		put(uint64(r.LastRound))
		put(uint64(r.Ops))
		put(math.Float64bits(r.SimTime))
		if rec != nil {
			put(uint64(rec.Total()))
			events = rec.AppendTo(events[:0])
			for _, e := range events {
				put(math.Float64bits(e.Time))
				put(math.Float64bits(e.Delay))
				put(uint64(e.Step))
				put(uint64(e.Proc)<<32 | uint64(uint32(e.Round)))
				put(uint64(e.Value)<<32 | uint64(e.Kind))
			}
		}
	}
	return fmt.Sprintf("%016x", h.Sum64())
}

// TestPooledOutcomeDigests pins the pooled engine paths to the outcomes
// they produced before their hot-path trims (the sched event heap's
// in-place root replacement and the hybrid model's pooled runner): the
// digests were recorded from the unoptimized engine, so any change to an
// outcome on any seed fails here. sched at n=1000 covers its first 1000
// seeds, which keeps the case to a few seconds.
func TestPooledOutcomeDigests(t *testing.T) {
	cases := []struct {
		model, adversary string
		n, seeds         int
		traced           bool
		want             string
	}{
		{"sched", "zero", 8, 10000, false, "aeb3fec805cc4469"},
		{"sched", "antileader:m=2", 8, 10000, false, "cd48b82a8a71c2ad"},
		{"sched", "zero", 1000, 1000, false, "d7e681b99851742d"},
		{"hybrid", "zero", 8, 10000, false, "add19bbee76390a5"},
		{"hybrid", "antileader", 8, 10000, false, "b2e81def71198025"},
		{"hybrid", "random:m=1:seed=7", 8, 10000, false, "265c739961155a45"},
		{"sched", "zero", 8, 10000, true, "35f6a93ff0f7b639"},
		{"hybrid", "zero", 8, 10000, true, "4f217433f33c4ce5"},
		{"hybrid", "antileader", 8, 10000, true, "c13c019324137925"},
		// msgnet rows, recorded from the binary event heap and map-backed
		// replica stores that preceded the key-heap event queue. A msgnet
		// run costs milliseconds, so these cover fewer seeds; the traced
		// row pins the event-level delivery schedule.
		{"msgnet", "zero", 4, 1000, false, "152bff7adc380bd4"},
		{"msgnet", "zero", 8, 200, false, "498f798869865b2a"},
		{"msgnet", "zero", 8, 100, true, "68be8ad3297f5582"},
	}
	for _, c := range cases {
		name := fmt.Sprintf("%s/%s/n%d", c.model, c.adversary, c.n)
		if c.traced {
			name += "/traced"
		}
		t.Run(name, func(t *testing.T) {
			if got := outcomeDigest(t, c.model, c.adversary, c.n, c.seeds, c.traced); got != c.want {
				t.Errorf("digest over %d seeds = %s, want %s", c.seeds, got, c.want)
			}
		})
	}
}
