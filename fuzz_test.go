package leanconsensus_test

import (
	"errors"
	"fmt"
	"strings"
	"testing"

	"leanconsensus"
	"leanconsensus/internal/campaign"
	"leanconsensus/internal/engine"
	"leanconsensus/internal/server"
)

// FuzzSimulateSafety fuzzes the public simulation entry point over seeds,
// input patterns, sizes and distribution choices, checking the full
// invariant battery (agreement, validity, Lemma 2, Lemma 4) on recorded
// histories. Run with `go test -fuzz FuzzSimulateSafety` for continuous
// fuzzing; the seed corpus below runs as part of the normal test suite.
func FuzzSimulateSafety(f *testing.F) {
	f.Add(uint64(1), uint8(0b0101), uint8(6), uint8(0))
	f.Add(uint64(42), uint8(0b1100), uint8(4), uint8(1))
	f.Add(uint64(7), uint8(0b1111), uint8(8), uint8(2))
	f.Add(uint64(99), uint8(0b0001), uint8(2), uint8(3))
	f.Add(uint64(3), uint8(0b1010), uint8(5), uint8(4))

	dists := []leanconsensus.Distribution{
		leanconsensus.Exponential(1),
		leanconsensus.Uniform(0, 2),
		leanconsensus.Geometric(0.5),
		leanconsensus.TwoPoint(1, 2),
		leanconsensus.Normal(1, 0.2, 0, 2),
	}

	f.Fuzz(func(t *testing.T, seed uint64, pattern uint8, nRaw uint8, distIdx uint8) {
		n := int(nRaw)%8 + 1
		inputs := make([]int, n)
		ones := 0
		for i := range inputs {
			inputs[i] = int(pattern>>(i%8)) & 1
			ones += inputs[i]
		}
		d := dists[int(distIdx)%len(dists)]
		res, err := leanconsensus.Simulate(n,
			leanconsensus.WithInputs(inputs),
			leanconsensus.WithDistribution(d),
			leanconsensus.WithSeed(seed),
			leanconsensus.WithRecording(),
		)
		if err != nil {
			t.Fatalf("seed=%d inputs=%v dist=%v: %v", seed, inputs, d, err)
		}
		if err := res.CheckInvariants(); err != nil {
			t.Fatalf("INVARIANT VIOLATION seed=%d inputs=%v dist=%v: %v", seed, inputs, d, err)
		}
		if ones == 0 && res.Value != 0 {
			t.Fatalf("validity: all-zero inputs decided %d", res.Value)
		}
		if ones == n && res.Value != 1 {
			t.Fatalf("validity: all-one inputs decided %d", res.Value)
		}
	})
}

// oversizedAdversaryAxis builds a campaign spec whose adversaries × seeds
// product exceeds the cell limit using only registered names, so the
// failure must be the limit gate, not name resolution.
func oversizedAdversaryAxis() string {
	var advs, seeds []string
	for i := 1; i <= 70; i++ {
		advs = append(advs, fmt.Sprintf("%q", fmt.Sprintf("random:seed=%d", i)))
		seeds = append(seeds, fmt.Sprintf("%d", i))
	}
	return fmt.Sprintf(`{"adversaries":[%s],"seeds":[%s],"reps":1}`,
		strings.Join(advs, ","), strings.Join(seeds, ","))
}

// FuzzJobSpecDecode fuzzes the serving layer's job-spec JSON decoder
// (server.DecodeSubmit, the body of POST /v1/jobs). Hostile input —
// malformed JSON, unknown fields, out-of-range n or instance counts,
// unregistered model/variant/dist names — must come back as an error
// (the handler's 400), never a panic, and anything the decoder accepts
// must be a batch the engine registries fully resolved within the wire
// limits.
func FuzzJobSpecDecode(f *testing.F) {
	f.Add(`{"jobs":[{"instances":10}]}`)
	f.Add(`{"jobs":[{"model":"sched","dist":"exponential","n":8,"seed":1,"instances":100}]}`)
	f.Add(`{"jobs":[{"model":"hybrid","instances":5},{"model":"msgnet","dist":"two-point","instances":5}]}`)
	f.Add(`{"jobs":[{"model":"quantum","instances":1}]}`)
	f.Add(`{"jobs":[{"variant":"combined","instances":1}]}`)
	f.Add(`{"jobs":[{"adversary":"antileader:m=8","instances":10}]}`)
	f.Add(`{"jobs":[{"model":"hybrid","adversary":"random:m=1:seed=2","instances":1}]}`)
	f.Add(`{"jobs":[{"model":"msgnet","adversary":"antileader","instances":1}]}`)
	f.Add(`{"jobs":[{"adversary":"antileader:m=","instances":1}]}`)
	f.Add(`{"jobs":[{"adversary":"sticky","instances":1}]}`)
	f.Add(`{"jobs":[{"adversary":"bogus","instances":1}]}`)
	f.Add(`{"jobs":[{"adversary":"none","model":"msgnet","instances":1}]}`)
	f.Add(`{"jobs":[{"n":-3,"instances":1}]}`)
	f.Add(`{"jobs":[{"n":1000000,"instances":1}]}`)
	f.Add(`{"jobs":[{"instances":0}]}`)
	f.Add(`{"jobs":[]}`)
	f.Add(`{"jobs":[{"instances":1,"bogus":7}]}`)
	f.Add(`{"jobs": [`)
	f.Add(`{"jobs":[{"instances":1}]} trailing`)
	f.Add(`[1,2,3]`)
	f.Add(`null`)
	f.Add("\x00\xff\xfe")

	f.Fuzz(func(t *testing.T, body string) {
		batch, err := server.DecodeSubmit(strings.NewReader(body), server.DefaultMaxBatch)
		if err != nil {
			if batch != nil {
				t.Fatalf("decoder returned both a batch and error %v", err)
			}
			return
		}
		if len(batch.Jobs) == 0 || len(batch.Jobs) != len(batch.Specs) {
			t.Fatalf("accepted batch is malformed: %d jobs, %d specs", len(batch.Jobs), len(batch.Specs))
		}
		for i, job := range batch.Jobs {
			if job.Model == nil {
				t.Fatalf("job %d accepted with unresolved model: %+v", i, job)
			}
			if job.Noise == nil && !engine.IgnoresNoise(job.Model) {
				t.Fatalf("job %d accepted with unresolved noise for noisy model %q", i, job.ModelName)
			}
			if job.N < 1 || job.N > engine.MaxWireN {
				t.Fatalf("job %d accepted with n=%d outside [1, %d]", i, job.N, engine.MaxWireN)
			}
			if job.Instances < 1 || job.Instances > engine.MaxWireInstances {
				t.Fatalf("job %d accepted with instances=%d outside [1, %d]",
					i, job.Instances, engine.MaxWireInstances)
			}
			if job.VariantName != engine.ServableVariant {
				t.Fatalf("job %d accepted with unservable variant %q", i, job.VariantName)
			}
			if job.AdvName == "" {
				t.Fatalf("job %d accepted with no adversary label", i)
			}
			if job.Adversary != nil && !engine.AcceptsAdversary(job.Model, job.Adversary) {
				t.Fatalf("job %d accepted adversary %q the model %q cannot run",
					i, job.AdvName, job.ModelName)
			}
			if _, ok := job.Model.(engine.Adversarial); !ok && job.AdvName != engine.NoAdversary {
				t.Fatalf("job %d: model %q outside the adversary axis carries label %q",
					i, job.ModelName, job.AdvName)
			}
		}
	})
}

// FuzzCampaignSpecDecode fuzzes the campaign spec decoder
// (campaign.DecodeSpec, the body of POST /v1/campaigns). Hostile input —
// malformed JSON, unknown fields, unregistered names, out-of-range reps,
// and above all oversized grids — must come back as an error (a typed
// *campaign.LimitError for anything over the wire limits), never a panic
// or an attempt to materialize the named grid; anything the decoder
// accepts must be a campaign whose every cell the engine registries
// fully resolved within the limits.
func FuzzCampaignSpecDecode(f *testing.F) {
	f.Add(`{"reps":10}`)
	f.Add(`{"name":"fig1","models":["sched"],"dists":["exponential","uniform","normal","geometric","two-point","delayed"],"ns":[1,10,100],"seeds":[1],"reps":50}`)
	f.Add(`{"models":["hybrid","sched"],"dists":["exponential","uniform"],"ns":[4],"reps":3}`)
	f.Add(`{"models":["nope"],"reps":1}`)
	f.Add(`{"dists":["none"],"reps":1}`)
	f.Add(`{"ns":[0,-1],"reps":1}`)
	f.Add(`{"ns":[1000000],"reps":1}`)
	f.Add(`{"seeds":[18446744073709551615],"reps":1}`)
	f.Add(`{"reps":1000000,"ns":[4,8]}`)
	f.Add(`{"reps":0}`)
	f.Add(`{"reps":1,"bogus":7}`)
	f.Add(`{"reps":1} trailing`)
	f.Add(`{"dists":["two-point","twopoint"],"reps":1}`)
	f.Add(`{"adversaries":["zero","antileader:m=8","stagger:gap=2"],"reps":2}`)
	f.Add(`{"models":["msgnet"],"adversaries":["zero","antileader:m=2"],"reps":1}`)
	f.Add(`{"models":["hybrid"],"adversaries":["halfsplit"],"reps":1}`)
	f.Add(`{"adversaries":["antileader:m="],"reps":1}`)
	f.Add(`{"adversaries":["antileader","anti-leader:m=1"],"reps":1}`)
	f.Add(`{"adversaries":["bogus"],"reps":1}`)
	f.Add(`{"reps":1,"correlation":"c"}`)
	f.Add(`{"reps":1,"tenant":"acme"}`)
	f.Add(`{"reps":1,"Correlation":"c"}`)
	// An oversized adversary axis (70 × 70 seeds > 4096 cells) must come
	// back as the typed *LimitError, never an attempt at the grid.
	f.Add(oversizedAdversaryAxis())
	f.Add(`[1,2,3]`)
	f.Add(`null`)
	f.Add("\x00\xff\xfe")

	f.Fuzz(func(t *testing.T, body string) {
		c, err := campaign.DecodeSpec(strings.NewReader(body))
		if err != nil {
			if c != nil {
				t.Fatalf("decoder returned both a campaign and error %v", err)
			}
			var le *campaign.LimitError
			if errors.As(err, &le) && le.Got <= le.Max {
				t.Fatalf("limit error for a value within the limit: %+v", le)
			}
			return
		}
		if len(c.Cells) == 0 || int64(len(c.Cells)) > campaign.MaxWireCells {
			t.Fatalf("accepted campaign has %d cells", len(c.Cells))
		}
		if c.Instances < 1 || c.Instances > campaign.MaxWireInstances {
			t.Fatalf("accepted campaign has %d instances", c.Instances)
		}
		if len(c.Hash) != 64 {
			t.Fatalf("accepted campaign has bad hash %q", c.Hash)
		}
		seen := make(map[string]bool)
		for _, cell := range c.Cells {
			if seen[cell.Key] {
				t.Fatalf("duplicate cell %q survived dedup", cell.Key)
			}
			seen[cell.Key] = true
			job := cell.Job
			if job.Model == nil {
				t.Fatalf("cell %q accepted with unresolved model", cell.Key)
			}
			if job.Noise == nil && !engine.IgnoresNoise(job.Model) {
				t.Fatalf("cell %q accepted with unresolved noise for noisy model %q", cell.Key, job.ModelName)
			}
			if job.N < 1 || job.N > engine.MaxWireN {
				t.Fatalf("cell %q accepted with n=%d", cell.Key, job.N)
			}
			if job.Instances != c.Spec.Reps {
				t.Fatalf("cell %q carries %d instances, spec says %d", cell.Key, job.Instances, c.Spec.Reps)
			}
			if job.AdvName == "" {
				t.Fatalf("cell %q accepted with no adversary label", cell.Key)
			}
			if _, ok := job.Model.(engine.Adversarial); !ok && job.AdvName != engine.NoAdversary {
				t.Fatalf("cell %q: model %q outside the adversary axis carries label %q",
					cell.Key, job.ModelName, job.AdvName)
			}
		}
	})
}
