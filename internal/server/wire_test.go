package server_test

import (
	"context"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
	"time"

	"leanconsensus/internal/obslog"
	"leanconsensus/internal/server"
)

// wireClock matches the wall-clock fields of a served body — the only
// bytes a replay of the same requests may change — so the golden
// comparison can mask them.
var wireClock = regexp.MustCompile(`"(created|elapsedMs|throughput|ts|goroutines|gcPauseP99Ms|version|revision)": ("[^"]*"|[^,\n}]+)`)

// maskWire replaces every wall-clock value with "*".
func maskWire(b []byte) []byte { return wireClock.ReplaceAll(b, []byte(`"$1": "*"`)) }

// serveWire drives one deterministic request script against a fresh
// server and returns every body it was served, wall-clock fields
// masked, keyed by golden name: the 202, a queued and a done job, a
// done campaign, a job trace, the catalogs, health while busy and while
// draining, an events page, and the 400/404/429/503 error envelopes.
func serveWire(t *testing.T) map[string][]byte {
	t.Helper()
	ctx := context.Background()
	journal := obslog.New(0)
	journal.SetNode("golden")
	srv, client := newTestServer(t, server.Config{
		Shards: 2, Workers: 1, MaxConcurrentJobs: 1, HighWater: 1000, Journal: journal,
	})
	release := gateSlowModel(t)
	bodies := map[string][]byte{}
	call := func(name, method, path, body string, want int) {
		t.Helper()
		req, err := http.NewRequestWithContext(ctx, method, client.BaseURL+path, strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		b, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != want {
			t.Fatalf("%s %s = %d, want %d\n%s", method, path, resp.StatusCode, want, b)
		}
		if name != "" {
			bodies[name] = maskWire(b)
		}
	}

	// j-000001 holds the only execution slot, so j-000002 stays queued
	// until the gate opens.
	call("", http.MethodPost, "/v1/jobs", `{"jobs":[{"model":"slowtest","n":2,"instances":1}]}`, http.StatusAccepted)
	for {
		st, err := client.Job(ctx, "j-000001")
		if err != nil {
			t.Fatal(err)
		}
		if st.Status == "running" {
			break
		}
		time.Sleep(time.Millisecond)
	}
	call("submit_202", http.MethodPost, "/v1/jobs",
		`{"jobs":[{"model":"sched","dist":"uniform","n":3,"seed":7,"instances":20}],"trace":1}`, http.StatusAccepted)
	call("job_queued", http.MethodGet, "/v1/jobs/j-000002", "", http.StatusOK)
	call("healthz", http.MethodGet, "/healthz", "", http.StatusOK)
	call("error_400", http.MethodPost, "/v1/jobs", `{"jobs":[]}`, http.StatusBadRequest)
	call("error_404", http.MethodGet, "/v1/jobs/j-999999", "", http.StatusNotFound)
	call("error_429", http.MethodPost, "/v1/jobs", `{"jobs":[{"instances":5000}]}`, http.StatusTooManyRequests)
	call("models", http.MethodGet, "/v1/models", "", http.StatusOK)
	call("adversaries", http.MethodGet, "/v1/adversaries", "", http.StatusOK)

	release()
	if _, err := client.WaitJob(ctx, "j-000002"); err != nil {
		t.Fatal(err)
	}
	call("job_done", http.MethodGet, "/v1/jobs/j-000002", "", http.StatusOK)
	call("job_trace", http.MethodGet, "/v1/jobs/j-000002/trace", "", http.StatusOK)
	call("", http.MethodPost, "/v1/campaigns",
		`{"name":"wire","dists":["exponential","uniform"],"ns":[3],"seeds":[1],"reps":20}`, http.StatusAccepted)
	if _, err := client.WaitCampaign(ctx, "c-000001"); err != nil {
		t.Fatal(err)
	}
	call("campaign_done", http.MethodGet, "/v1/campaigns/c-000001", "", http.StatusOK)

	srv.Close()
	call("error_503", http.MethodPost, "/v1/jobs", `{"jobs":[{"instances":1}]}`, http.StatusServiceUnavailable)
	call("healthz_draining", http.MethodGet, "/healthz", "", http.StatusServiceUnavailable)

	// An events page off a journal whose content the script fixes: served
	// work journals concurrently with the requests that observe it, so
	// its sequence numbers are not a function of the script.
	quiet := obslog.New(0)
	quiet.SetNode("golden")
	_, qc := newTestServer(t, server.Config{Journal: quiet})
	quiet.Append(obslog.KindJobAdmit, "j-000001", "corr-1", obslog.Labels{
		Model: "sched", Dist: "uniform", Adversary: "zero", N: 3, Tenant: "acme", Count: 20,
	})
	quiet.Append(obslog.KindCellDone, "model=sched,dist=exponential,adv=zero,n=3,seed=1", "c-000001",
		obslog.Labels{Count: 20, Detail: "ok"})
	client = qc
	call("events", http.MethodGet, "/v1/events?since=0", "", http.StatusOK)
	return bodies
}

// TestWireGolden pins every served body shape: testdata/wire holds what
// an earlier build served for serveWire's script, and this build must
// serve the same bytes, wall-clock fields aside.
func TestWireGolden(t *testing.T) {
	got := serveWire(t)
	if files, _ := filepath.Glob(filepath.Join("testdata", "wire", "*.json")); len(files) != len(got) {
		t.Errorf("%d golden files for %d served bodies", len(files), len(got))
	}
	for name, body := range got {
		want, err := os.ReadFile(filepath.Join("testdata", "wire", name+".json"))
		if err != nil {
			t.Fatal(err)
		}
		if string(body) != string(want) {
			t.Errorf("%s body changed\n got %s\nwant %s", name, body, want)
		}
	}
}
