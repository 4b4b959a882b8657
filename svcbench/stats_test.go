package main

import (
	"context"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	lc "leanconsensus"
)

func TestPercentileExactSamples(t *testing.T) {
	hundred := make([]float64, 100)
	for i := range hundred {
		hundred[i] = float64(100 - i) // unsorted on purpose: 100..1
	}
	for _, tc := range []struct {
		name    string
		samples []float64
		p, want float64
	}{
		{"empty", nil, 0.5, 0},
		{"single", []float64{3.7}, 0.99, 3.7},
		{"pair median interpolates", []float64{4, 2}, 0.5, 3},
		{"1..100 median", hundred, 0.5, 50.5},
		{"1..100 p99", hundred, 0.99, 99.01},
		{"1..100 max", hundred, 1, 100},
		{"1..100 min", hundred, 0, 1},
		// A histogram with 1-2.5-5 bucket bounds would report 2.5 or 5
		// here; the exact samples give the value itself.
		{"no bucket snapping", []float64{3.3, 3.4, 3.5}, 0.5, 3.4},
	} {
		s := append([]float64(nil), tc.samples...)
		if got := percentile(s, tc.p); math.Abs(got-tc.want) > 1e-9 {
			t.Errorf("%s: percentile(p=%v) = %v, want %v", tc.name, tc.p, got, tc.want)
		}
	}
}

// fakeService answers the three failure shapes a run must count: a
// 429 on submit, a stream that never finishes, and a finished job whose
// result is wrong.
func fakeService(t *testing.T) *httptest.Server {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/jobs", func(w http.ResponseWriter, r *http.Request) {
		if r.Header.Get(lc.TenantHeader) == "shed" {
			w.Header().Set("Retry-After", "1")
			w.WriteHeader(http.StatusTooManyRequests)
			fmt.Fprint(w, `{"error":"queue full"}`)
			return
		}
		fmt.Fprintf(w, `{"id":%q}`, r.Header.Get(lc.TenantHeader))
	})
	mux.HandleFunc("GET /v1/jobs/{id}/stream", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/event-stream")
		w.(http.Flusher).Flush()
		if r.PathValue("id") == "hang" {
			<-r.Context().Done()
			return
		}
		// Done, but one instance short of the spec's 10.
		fmt.Fprint(w, "event: done\ndata: {\"id\":\"wrong\",\"status\":\"done\",\"specs\":[{\"instances\":10,"+
			"\"result\":{\"instances\":10,\"decided0\":4,\"decided1\":5}}]}\n\n")
	})
	srv := httptest.NewServer(mux)
	t.Cleanup(srv.Close)
	return srv
}

func TestFailuresCountOnce(t *testing.T) {
	srv := fakeService(t)
	r := &rig{client: lc.NewClient(srv.URL)}
	var l ledger
	for _, tenant := range []string{"shed", "hang", "wrong"} {
		// The fake echoes the tenant as the job ID, selecting its answer.
		spec := lc.JobSpec{Model: "sched", N: 8, Seed: 1, Instances: 10, Tenant: tenant}
		o := &op{tag: tenant, due: time.Now()}
		runJob(context.Background(), r, o, []lc.JobSpec{spec}, references{}, 200*time.Millisecond)
		l.add(o.err)
	}
	l.add(nil) // one success
	if l.Attempted != 4 || l.Failed != 3 {
		t.Fatalf("attempted %d failed %d, want 4 and 3 (%v)", l.Attempted, l.Failed, l.First)
	}
	for _, class := range []string{failShed, failTimeout, failWrong} {
		if l.ByClass[class] != 1 {
			t.Errorf("class %s counted %d times, want once (%v)", class, l.ByClass[class], l.ByClass)
		}
	}
	if got := l.share(); got != 0.75 {
		t.Errorf("failed share %v, want 0.75", got)
	}
}

func TestClassifyDraining503(t *testing.T) {
	err := fmt.Errorf("submit: %w", &lc.APIError{StatusCode: http.StatusServiceUnavailable, Message: "draining"})
	if c := classify(err); c != failShed {
		t.Fatalf("503 classified %q, want %q", c, failShed)
	}
	if c := classify(&lc.APIError{StatusCode: http.StatusBadRequest}); c != failError {
		t.Fatalf("400 classified %q, want %q", c, failError)
	}
}

func TestStageResidue(t *testing.T) {
	ms := time.Millisecond
	exact := stages{E2E: 10 * ms, Lag: 1 * ms, Submit: 2 * ms, Queue: 1 * ms, Run: 5 * ms, DoneToResult: 1 * ms}
	if r := exact.residue(); r != 0 {
		t.Errorf("stages summing to e2e leave residue %v, want 0", r)
	}
	gap := exact
	gap.E2E = 12 * ms
	if r := gap.residue(); r != 2*ms {
		t.Errorf("a 2ms unmeasured gap leaves residue %v, want 2ms", r)
	}
	overlap := exact
	overlap.Submit = 3 * ms // the 202 is written after job.admit: submit and queue overlap
	if r := overlap.residue(); r != -1*ms {
		t.Errorf("a 1ms overlap leaves residue %v, want -1ms", r)
	}
}

func TestCounterSeries(t *testing.T) {
	text := strings.Join([]string{
		`# TYPE leanconsensus_decisions_total counter`,
		`leanconsensus_decisions_total{model="sched",dist="exponential",adversary="zero",value="0"} 40`,
		`leanconsensus_decisions_total{model="sched",dist="exponential",adversary="zero",value="1"} 60`,
		`leanconsensus_decisions_total{model="hybrid",dist="none",adversary="zero",value="1"} 5`,
		`leanconsensus_decisions_total_extra 7`,
		`leanconsensus_campaign_instances_total 12`,
		`leanconsensus_campaign_instances_total{model="msgnet"} 12`,
	}, "\n")
	dec, err := counterSeries(text, "leanconsensus_decisions_total")
	if err != nil {
		t.Fatal(err)
	}
	if len(dec) != 3 {
		t.Fatalf("decision series %v, want the 3 labelled ones only", dec)
	}
	inst, err := counterSeries(text, "leanconsensus_campaign_instances_total")
	if err != nil {
		t.Fatal(err)
	}
	if inst[""] != 12 || inst[`{model="msgnet"}`] != 12 {
		t.Fatalf("campaign series %v", inst)
	}
}
