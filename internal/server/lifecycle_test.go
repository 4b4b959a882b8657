package server_test

import (
	"context"
	"encoding/json"
	"errors"
	"io"
	"io/fs"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"leanconsensus"
	"leanconsensus/internal/server"
)

// TestParentStateDirBoots pins the on-disk state format across code
// changes: testdata/parent_state is a state dir written by an earlier
// build of this package (a done job, a failed job, an admitted job, a
// done campaign, and an admitted campaign with its checkpoint), and
// testdata/parent_served holds what that build served for the terminal
// records after a restart. Booting on a copy must serve those bytes
// exactly, re-run the admitted job and resume the admitted campaign to
// the results of their finished twins (each admitted record repeats a
// finished one's spec), and continue both ID sequences.
func TestParentStateDirBoots(t *testing.T) {
	dir := t.TempDir()
	copyTree(t, filepath.Join("testdata", "parent_state"), dir)
	ctx := context.Background()
	_, client, _ := newStateServer(t, dir, server.Config{Shards: 2, Workers: 1})

	for _, p := range []string{"/v1/jobs/j-000001", "/v1/jobs/j-000002", "/v1/campaigns/c-000001"} {
		want, err := os.ReadFile(filepath.Join("testdata", "parent_served", filepath.Base(p)+".json"))
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.Get(client.BaseURL + p)
		if err != nil {
			t.Fatal(err)
		}
		got, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != http.StatusOK || string(got) != string(want) {
			t.Errorf("GET %s = %d\n%s\nwant the earlier build's body\n%s", p, resp.StatusCode, got, want)
		}
	}

	done, err := client.Job(ctx, "j-000001")
	if err != nil {
		t.Fatal(err)
	}
	rerun, err := client.WaitJob(ctx, "j-000003")
	if err != nil {
		t.Fatalf("admitted job did not re-run: %v", err)
	}
	if rerun.Tenant != "acme" || len(rerun.Specs) != 1 || rerun.Specs[0].Result == nil {
		t.Fatalf("re-run job = %+v, want one finished spec under tenant acme", rerun)
	}
	want, got := *done.Specs[0].Result, *rerun.Specs[0].Result
	want.ElapsedMS, want.Throughput = 0, 0 // wall-clock fields
	got.ElapsedMS, got.Throughput = 0, 0
	if got != want {
		t.Errorf("re-run SpecResult\n got %+v\nwant %+v", got, want)
	}

	doneCamp, err := client.Campaign(ctx, "c-000001")
	if err != nil {
		t.Fatal(err)
	}
	resumed, err := client.WaitCampaign(ctx, "c-000002")
	if err != nil {
		t.Fatalf("admitted campaign did not resume: %v", err)
	}
	wantRep, _ := json.Marshal(doneCamp.Report)
	gotRep, _ := json.Marshal(resumed.Report)
	if doneCamp.Report == nil || string(gotRep) != string(wantRep) {
		t.Errorf("resumed campaign report differs:\n got %s\nwant %s", gotRep, wantRep)
	}

	jid, err := client.SubmitJobs(ctx, leanconsensus.JobSpec{N: 2, Instances: 1, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	cid, err := client.SubmitCampaign(ctx, leanconsensus.CampaignSpec{Ns: []int{2}, Reps: 1})
	if err != nil {
		t.Fatal(err)
	}
	if jid != "j-000004" || cid != "c-000003" {
		t.Errorf("next IDs = %s, %s; want j-000004, c-000003", jid, cid)
	}
	if _, err := client.WaitJob(ctx, jid); err != nil {
		t.Fatal(err)
	}
	if _, err := client.WaitCampaign(ctx, cid); err != nil {
		t.Fatal(err)
	}
}

// copyTree copies the regular files under src into dst.
func copyTree(t *testing.T, src, dst string) {
	t.Helper()
	err := filepath.WalkDir(src, func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(src, p)
		if err != nil {
			return err
		}
		if d.IsDir() {
			return os.MkdirAll(filepath.Join(dst, rel), 0o755)
		}
		b, err := os.ReadFile(p)
		if err != nil {
			return err
		}
		return os.WriteFile(filepath.Join(dst, rel), b, 0o644)
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestMaxJobsKeptBoundsEachKind pins that MaxJobsKept bounds the job and
// campaign tables separately: finished jobs never evict a finished
// campaign and vice versa, in memory and across a restart.
func TestMaxJobsKeptBoundsEachKind(t *testing.T) {
	dir := t.TempDir()
	ctx := context.Background()
	cfg := server.Config{MaxJobsKept: 2}
	_, client, stop := newStateServer(t, dir, cfg)

	var jobs, camps []string
	addCampaign := func() {
		id, err := client.SubmitCampaign(ctx, leanconsensus.CampaignSpec{Ns: []int{2}, Reps: 2, Seeds: []uint64{uint64(len(camps) + 1)}})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := client.WaitCampaign(ctx, id); err != nil {
			t.Fatal(err)
		}
		camps = append(camps, id)
	}
	addJob := func() {
		id, err := client.SubmitJobs(ctx, leanconsensus.JobSpec{N: 2, Instances: 2, Seed: uint64(len(jobs) + 1)})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := client.WaitJob(ctx, id); err != nil {
			t.Fatal(err)
		}
		jobs = append(jobs, id)
	}
	resolves := func(c *leanconsensus.Client, id string) bool {
		var err error
		if strings.HasPrefix(id, "j-") {
			_, err = c.Job(ctx, id)
		} else {
			_, err = c.Campaign(ctx, id)
		}
		var apiErr *leanconsensus.APIError
		if err != nil && !(errors.As(err, &apiErr) && apiErr.StatusCode == http.StatusNotFound) {
			t.Fatalf("lookup %s: %v", id, err)
		}
		return err == nil
	}
	expect := func(c *leanconsensus.Client, when string, kept, evicted []string) {
		t.Helper()
		for _, id := range kept {
			if !resolves(c, id) {
				t.Errorf("%s: %s was evicted, want it kept", when, id)
			}
		}
		for _, id := range evicted {
			if resolves(c, id) {
				t.Errorf("%s: %s still resolves, want it evicted", when, id)
			}
		}
	}

	addCampaign()
	for i := 0; i < 3; i++ {
		addJob()
	}
	expect(client, "after 3 jobs", []string{camps[0], jobs[1], jobs[2]}, []string{jobs[0]})
	for i := 0; i < 3; i++ {
		addCampaign()
	}
	kept := []string{jobs[1], jobs[2], camps[2], camps[3]}
	evicted := []string{jobs[0], camps[0], camps[1]}
	expect(client, "after 3 more campaigns", kept, evicted)
	stop()

	_, client2, _ := newStateServer(t, dir, cfg)
	expect(client2, "after restart", kept, evicted)
}

// TestStreamAfterDrainHandoffHasNoDone: with durable state armed, Close
// hands queued work to the successor process instead of running it. A
// stream open on that work must not report success: the server ends
// the stream without a "done" event, so the client returns its "stream
// ended without a done event" error rather than a queued status and a
// nil error. The gated slowtest job holds the only execution slot, so
// the streamed work is deterministically still queued at Close.
func TestStreamAfterDrainHandoffHasNoDone(t *testing.T) {
	for _, kind := range []string{"job", "campaign"} {
		t.Run(kind, func(t *testing.T) {
			release := gateSlowModel(t)
			srv, client, _ := newStateServer(t, t.TempDir(), server.Config{MaxConcurrentJobs: 1})
			ctx := context.Background()

			blocker, err := client.SubmitJobs(ctx, leanconsensus.JobSpec{Model: "slowtest", N: 2, Instances: 1})
			if err != nil {
				t.Fatal(err)
			}
			for {
				st, err := client.Job(ctx, blocker)
				if err != nil {
					t.Fatal(err)
				}
				if st.Status == leanconsensus.JobRunning {
					break
				}
			}

			opened := make(chan struct{})
			var once sync.Once
			onProgress := func() { once.Do(func() { close(opened) }) }
			type outcome struct {
				status string
				err    error
			}
			res := make(chan outcome, 1)
			if kind == "job" {
				id, err := client.SubmitJobs(ctx, leanconsensus.JobSpec{N: 2, Instances: 2, Seed: 1})
				if err != nil {
					t.Fatal(err)
				}
				go func() {
					st, err := client.StreamJob(ctx, id, func(leanconsensus.JobStatus) { onProgress() })
					o := outcome{err: err}
					if st != nil {
						o.status = st.Status
					}
					res <- o
				}()
			} else {
				id, err := client.SubmitCampaign(ctx, leanconsensus.CampaignSpec{Ns: []int{2}, Reps: 2})
				if err != nil {
					t.Fatal(err)
				}
				go func() {
					st, err := client.StreamCampaign(ctx, id, func(leanconsensus.CampaignStatus) { onProgress() })
					o := outcome{err: err}
					if st != nil {
						o.status = st.Status
					}
					res <- o
				}()
			}

			<-opened
			closed := make(chan struct{})
			go func() {
				srv.Close()
				close(closed)
			}()
			got := <-res
			release()
			<-closed
			if got.err == nil || !strings.Contains(got.err.Error(), "without a done event") {
				t.Fatalf("stream across the drain handoff returned status %q, err %v; want the no-done-event error",
					got.status, got.err)
			}
		})
	}
}
