package leanconsensus

import (
	"context"
	"time"

	"leanconsensus/internal/campaign"
)

// CampaignSpec is the declarative form of an experiment campaign: run
// Reps independent lean-consensus instances for every cell of the
// cartesian grid Models × Dists × Adversaries × Ns × Seeds. Empty lists
// select defaults (the default model, exponential noise, the zero
// schedule, n=8, seed 1). Names resolve through the same registries as
// every other entry point, so a newly registered model or distribution
// is immediately sweepable. Correlation and Tenant are transport
// metadata for Client.SubmitCampaign, never part of the grid.
//
// Campaigns are the paper's experiments turned into configuration: the
// Figure 1 reproduction, for example, is a six-distribution grid (see
// cmd/leansweep's built-in "fig1" spec) rather than a bespoke program.
type CampaignSpec = campaign.Spec

// CampaignProgress reports a campaign's position to Campaign.OnProgress.
type CampaignProgress struct {
	// CellKey is the cell that just completed ("" for the initial
	// restored-from-checkpoint notification).
	CellKey string
	// CellsDone/CellsTotal count cells; InstancesDone/InstancesTotal
	// count repetitions.
	CellsDone, CellsTotal         int
	InstancesDone, InstancesTotal int64
	// CellLatency is the completed cell's wall-clock execution time (0
	// for the restored-from-checkpoint notification) — the only
	// nondeterministic field, for throughput and ETA displays.
	CellLatency time.Duration
}

// CampaignCell is one completed grid cell's statistics. Every field is
// deterministic: a pure function of (model, dist, adversary, n, seed,
// reps).
type CampaignCell = campaign.CellReport

// CampaignReport is a completed campaign: one row per grid cell, in grid
// order, with the normalized spec echoed and its content hash, the key
// that binds checkpoints to grids. Reports are byte-identical across
// runs, pool shapes, and interrupt/resume boundaries; CSV and JSON
// render them.
type CampaignReport = campaign.Report

// Campaign is a configured experiment campaign. Fill the spec and the
// runtime knobs, then Run it; the zero values of everything but Spec
// select defaults.
type Campaign struct {
	// Spec is the grid to sweep.
	Spec CampaignSpec
	// Shards and Workers shape the arena worker pool (defaults 8 and 2).
	// The shape changes wall-clock speed only, never report bytes.
	Shards, Workers int
	// Checkpoint, when non-empty, is a manifest path that is atomically
	// rewritten after every completed cell.
	Checkpoint string
	// Resume permits continuing an existing manifest at Checkpoint (its
	// spec hash must match). Without Resume an existing manifest is an
	// error.
	Resume bool
	// OnProgress, when non-nil, is called serially after each completed
	// cell.
	OnProgress func(CampaignProgress)
}

// Run executes the campaign and returns its deterministic report. On ctx
// cancellation it stops cleanly after draining in-flight instances —
// completed cells stay in the checkpoint — and returns ctx.Err().
func (c *Campaign) Run(ctx context.Context) (*CampaignReport, error) {
	cfg := campaign.Config{
		Shards:     c.Shards,
		Workers:    c.Workers,
		Checkpoint: c.Checkpoint,
		Resume:     c.Resume,
	}
	if c.OnProgress != nil {
		cfg.OnCell = func(p campaign.Progress) {
			c.OnProgress(CampaignProgress(p))
		}
	}
	return campaign.Run(ctx, c.Spec, cfg)
}
