package engine

import (
	"fmt"

	"leanconsensus/internal/dist"
)

// Wire-level limits for network-facing job specs. They bound what one
// HTTP request can ask a serving pool to do; in-process callers
// (arena.Config, the harness) are deliberately not limited.
const (
	// DefaultWireN is the per-instance process count an absent "n" selects
	// (the arena default).
	DefaultWireN = 8
	// MaxWireN caps the per-instance process count.
	MaxWireN = 4096
	// MaxWireInstances caps the instance count of a single job spec.
	MaxWireInstances = 1_000_000
)

// ServableVariant is the algorithm variant the serving layer runs. The
// paper's whole construction fixes one algorithm — lean-consensus — and
// varies the environment around it, and the arena's pooled sessions are
// specialized to that algorithm's machines; other registered variants
// are valid for the harness but not servable.
const ServableVariant = "lean"

// JobSpec is the wire form of one batched consensus job: run Instances
// independent lean-consensus instances of N processes each under the
// named execution model and noise distribution, deterministically from
// Seed. The zero value of every field but Instances selects a default.
// It is the JSON contract of the serving layer's POST /v1/jobs.
type JobSpec struct {
	// Model names an execution model in the engine registry ("" selects
	// DefaultModel).
	Model string `json:"model,omitempty"`
	// Variant names an algorithm variant in the engine registry ("" selects
	// ServableVariant, currently the only servable one).
	Variant string `json:"variant,omitempty"`
	// Dist names a noise distribution in the dist registry ("" selects the
	// model's default; must stay empty for noise-free models).
	Dist string `json:"dist,omitempty"`
	// Adversary names an adversarial schedule in the adversary registry,
	// optionally parameterized ("antileader:m=8"). "" selects the zero
	// schedule; models outside the adversary axis accept only ""/"none"/
	// "zero" and reject anything else with a typed *AdversaryError.
	Adversary string `json:"adversary,omitempty"`
	// N is the process count per instance (0 selects DefaultWireN).
	N int `json:"n,omitempty"`
	// Seed fixes the job's decisions and simulated metrics.
	Seed uint64 `json:"seed,omitempty"`
	// Instances is the number of independent consensus instances to run.
	Instances int `json:"instances"`
	// Correlation, when non-empty, is sent as the X-Lean-Correlation
	// header on submission (a batch uses its first non-empty value): the
	// service stamps it as the Parent of the job's root journal events.
	// It is transport metadata, never part of a body.
	Correlation string `json:"-"`
	// Tenant, when non-empty, is sent as the X-Lean-Tenant header on
	// submission (a batch uses its first non-empty value): the service
	// admits the batch under that tenant's fair share and labels its
	// journal events. Transport metadata, never part of a body.
	Tenant string `json:"-"`
}

// Job is a resolved, validated JobSpec: every name has been looked up in
// its registry and every limit checked, so a Job can be handed straight
// to an arena.
type Job struct {
	// Model is the resolved execution model.
	Model Model
	// Noise is the resolved distribution (the registry default when the
	// spec left it empty); nil for noise-free models, whose DistName is
	// "none".
	Noise dist.Distribution
	// Adversary is the resolved adversarial schedule; nil when the spec
	// selected none (and always nil for models outside the adversary
	// axis, whose AdvName is "none").
	Adversary *Adversary
	// N, Seed, and Instances mirror the spec with defaults applied.
	N         int
	Seed      uint64
	Instances int
	// ModelName, VariantName, DistName, and AdvName are the canonical
	// registry names, for labels and reports.
	ModelName, VariantName, DistName, AdvName string
}

// Resolve validates the spec against the engine's model and variant
// registries and the distribution registry, applies defaults, and
// enforces the wire limits. Every error is a client error: the serving
// layer maps a Resolve failure to HTTP 400.
func (s JobSpec) Resolve() (Job, error) {
	model, err := ByName(s.Model)
	if err != nil {
		return Job{}, err
	}
	variant := s.Variant
	if variant == "" {
		variant = ServableVariant
	}
	// Resolved follows registry aliases, so an alias of the servable
	// variant stays servable and VariantName never forks spellings.
	variantName, ok := variants.Resolved(variant)
	if !ok {
		_, err := VariantByName(variant) // the registry's canonical error
		return Job{}, err
	}
	if variantName != ServableVariant {
		return Job{}, fmt.Errorf(
			"engine: variant %q is registered but not servable: the serving layer runs %q (the environments vary, the algorithm does not)",
			variant, ServableVariant)
	}
	// Noise-free models get DistName "none": attributing their decisions
	// to a distribution would be false telemetry, and a result's echoed
	// spec fields must round-trip through Resolve ("none" is accepted
	// back; a real distribution name is still a client error).
	var noise dist.Distribution
	distName := s.Dist
	if IgnoresNoise(model) {
		if distName != "" && distName != "none" {
			return Job{}, fmt.Errorf(
				"engine: dist %q has no effect on model %q: the model declares noise cannot affect it",
				s.Dist, model.Name())
		}
		distName = "none"
	} else {
		if distName == "" {
			distName = "exponential"
		}
		var err error
		if noise, err = dist.ByName(distName); err != nil {
			return Job{}, err
		}
		distName, _ = dist.ResolveName(distName)
	}
	// The adversary resolves through its registry like everything else.
	// Models outside the axis get AdvName "none" (mirroring the dist
	// axis's "none" for noise-free models); a non-zero schedule on such a
	// model — or one the model has no face for — is the typed error.
	adv, err := ResolveAdversary(s.Adversary)
	if err != nil {
		return Job{}, err
	}
	advName := adv.Name()
	if _, ok := model.(Adversarial); !ok {
		if !adv.IsZero() {
			return Job{}, newAdversaryError(model.Name(), adv)
		}
		adv, advName = nil, NoAdversary
	} else if err := CheckAdversary(model, adv); err != nil {
		return Job{}, err
	}
	n := s.N
	if n == 0 {
		n = DefaultWireN
	}
	if n < 1 || n > MaxWireN {
		return Job{}, fmt.Errorf("engine: n must be in [1, %d], got %d", MaxWireN, s.N)
	}
	if s.Instances < 1 || s.Instances > MaxWireInstances {
		return Job{}, fmt.Errorf("engine: instances must be in [1, %d], got %d", MaxWireInstances, s.Instances)
	}
	return Job{
		Model:       model,
		Noise:       noise,
		Adversary:   adv,
		N:           n,
		Seed:        s.Seed,
		Instances:   s.Instances,
		ModelName:   model.Name(),
		VariantName: variantName,
		DistName:    distName,
		AdvName:     advName,
	}, nil
}
