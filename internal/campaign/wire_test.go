package campaign_test

import (
	"errors"
	"strings"
	"testing"

	"leanconsensus/internal/campaign"
)

func TestDecodeSpec(t *testing.T) {
	c, err := campaign.DecodeSpec(strings.NewReader(
		`{"name":"x","models":["sched"],"dists":["exponential","uniform"],"ns":[4,8],"seeds":[1],"reps":10}`))
	if err != nil {
		t.Fatal(err)
	}
	if len(c.Cells) != 4 || c.Instances != 40 {
		t.Fatalf("decoded %d cells / %d instances, want 4 / 40", len(c.Cells), c.Instances)
	}
	if c.Hash == "" || len(c.Hash) != 64 {
		t.Fatalf("bad spec hash %q", c.Hash)
	}
	// Transport metadata never reaches the hash or the normalized spec.
	tagged := c.Spec
	tagged.Correlation, tagged.Tenant = "c", "acme"
	again, err := tagged.Resolve()
	if err != nil {
		t.Fatal(err)
	}
	if again.Hash != c.Hash || again.Spec.Correlation != "" || again.Spec.Tenant != "" {
		t.Fatalf("transport metadata leaked: hash %s vs %s, spec %+v", again.Hash, c.Hash, again.Spec)
	}
}

func TestDecodeSpecDefaults(t *testing.T) {
	c, err := campaign.DecodeSpec(strings.NewReader(`{"reps":5}`))
	if err != nil {
		t.Fatal(err)
	}
	if len(c.Cells) != 1 {
		t.Fatalf("default grid has %d cells, want 1", len(c.Cells))
	}
	job := c.Cells[0].Job
	if job.ModelName != "sched" || job.DistName != "exponential" || job.N != 8 || job.Instances != 5 {
		t.Fatalf("defaults resolved wrong: %+v", job)
	}
}

func TestDecodeSpecRejects(t *testing.T) {
	for _, body := range []string{
		``,
		`{`,
		`{"reps":0}`,
		`{"reps":-1}`,
		`{"reps":1,"bogus":true}`,
		`{"reps":1} trailing`,
		`{"reps":1,"models":["nope"]}`,
		`{"reps":1,"dists":["nope"]}`,
		`{"reps":1,"ns":[-4]}`,
		`{"reps":1,"dists":["none"]}`, // "none" is only for noise-free models
		`{"reps":1,"models":["hybrid"],"ns":[0],"dists":["exponential"],"seeds":[1],"reps":1,"extra":1}`,
		`{"reps":1,"correlation":"c"}`, // transport metadata is never a body key
		`{"reps":1,"tenant":"acme"}`,
		`{"reps":1,"Correlation":"c"}`,
	} {
		if _, err := campaign.DecodeSpec(strings.NewReader(body)); err == nil {
			t.Errorf("accepted %q", body)
		}
	}
}

// TestDecodeSpecGridLimit requires oversized grids to come back as a
// typed *LimitError without materializing any cells.
func TestDecodeSpecGridLimit(t *testing.T) {
	// 100 dists × 100 ns × 100 seeds > MaxWireCells (the dists repeat, but
	// the gate fires on axis lengths before dedup could even run).
	var sb strings.Builder
	sb.WriteString(`{"reps":1,"dists":[`)
	for i := 0; i < 100; i++ {
		if i > 0 {
			sb.WriteByte(',')
		}
		sb.WriteString(`"exponential"`)
	}
	sb.WriteString(`],"ns":[`)
	for i := 0; i < 100; i++ {
		if i > 0 {
			sb.WriteByte(',')
		}
		sb.WriteString(`4`)
	}
	sb.WriteString(`],"seeds":[`)
	for i := 0; i < 100; i++ {
		if i > 0 {
			sb.WriteByte(',')
		}
		sb.WriteString(`1`)
	}
	sb.WriteString(`]}`)

	_, err := campaign.DecodeSpec(strings.NewReader(sb.String()))
	var le *campaign.LimitError
	if !errors.As(err, &le) {
		t.Fatalf("oversized grid: err = %v, want *LimitError", err)
	}
	if le.What != "grid cells" || le.Max != campaign.MaxWireCells {
		t.Fatalf("wrong limit reported: %+v", le)
	}

	// Total-instance cap: a legal grid × huge reps.
	_, err = campaign.DecodeSpec(strings.NewReader(
		`{"reps":1000000,"ns":[4,8],"seeds":[1]}`))
	if !errors.As(err, &le) {
		t.Fatalf("oversized total: err = %v, want *LimitError", err)
	}
	if le.What != "total instances" {
		t.Fatalf("wrong limit reported: %+v", le)
	}
}
