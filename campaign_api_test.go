package leanconsensus_test

import (
	"bytes"
	"context"
	"encoding/json"
	"path/filepath"
	"strings"
	"testing"

	"leanconsensus"
)

// TestCampaignPublicAPI drives the root-package Campaign end to end:
// grid shape, progress callbacks, determinism of the rendered report,
// and checkpoint/resume through the public surface.
func TestCampaignPublicAPI(t *testing.T) {
	ctx := context.Background()
	spec := leanconsensus.CampaignSpec{
		Name:  "api",
		Dists: []string{"exponential", "uniform"},
		Ns:    []int{4, 8},
		Reps:  10,
	}
	// Correlation and Tenant are transport metadata: a spec carrying
	// them is the same campaign, with the same body bytes.
	tagged := spec
	tagged.Correlation, tagged.Tenant = "c", "acme"
	if plain, withMeta := mustJSON(t, spec), mustJSON(t, tagged); plain != withMeta {
		t.Fatalf("transport metadata reached the body: %s", withMeta)
	}

	var cells int
	c := &leanconsensus.Campaign{
		Spec:   tagged,
		Shards: 2, Workers: 2,
		OnProgress: func(p leanconsensus.CampaignProgress) {
			cells++
			if p.CellsTotal != 4 || p.InstancesTotal != 40 {
				t.Errorf("progress totals %d/%d, want 4/40", p.CellsTotal, p.InstancesTotal)
			}
		},
	}
	rep, err := c.Run(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if cells != 4 {
		t.Fatalf("OnProgress fired %d times, want 4", cells)
	}
	if len(rep.Cells) != 4 {
		t.Fatalf("report has %d cells, want 4", len(rep.Cells))
	}
	if rep.Spec.Models[0] != "sched" || rep.Spec.Seeds[0] != 1 {
		t.Fatalf("normalized spec not echoed: %+v", rep.Spec)
	}
	if rep.Spec.Correlation != "" || rep.Spec.Tenant != "" {
		t.Fatalf("transport metadata echoed in the report: %+v", rep.Spec)
	}
	for _, cell := range rep.Cells {
		if cell.Errors != 0 || cell.Decided0+cell.Decided1 != cell.Reps {
			t.Fatalf("cell %+v inconsistent", cell)
		}
		if cell.MeanRound < float64(cell.MinRound) || cell.MeanRound > float64(cell.MaxRound) {
			t.Fatalf("cell %+v mean outside [min,max]", cell)
		}
	}

	// Rendered outputs are deterministic and mirror the wire shapes.
	again, err := (&leanconsensus.Campaign{Spec: spec, Shards: 8, Workers: 1}).Run(ctx)
	if err != nil {
		t.Fatal(err)
	}
	j1, err := rep.JSON()
	if err != nil {
		t.Fatal(err)
	}
	j2, err := again.JSON()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(j1, j2) {
		t.Fatal("public reports differ across pool shapes")
	}
	if !strings.HasPrefix(rep.CSV(), "model,dist,adversary,n,seed,reps,") {
		t.Fatalf("unexpected CSV header:\n%s", rep.CSV())
	}

	// Checkpoint/resume through the public API.
	ckpt := filepath.Join(t.TempDir(), "api.ckpt.json")
	first, err := (&leanconsensus.Campaign{Spec: spec, Checkpoint: ckpt}).Run(ctx)
	if err != nil {
		t.Fatal(err)
	}
	resumed, err := (&leanconsensus.Campaign{Spec: spec, Checkpoint: ckpt, Resume: true}).Run(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if first.CSV() != resumed.CSV() {
		t.Fatal("resumed public report differs")
	}
}

// mustJSON marshals v.
func mustJSON(t *testing.T, v any) string {
	t.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}
