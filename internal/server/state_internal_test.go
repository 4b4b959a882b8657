package server

import (
	"os"
	"testing"
	"time"

	"leanconsensus/internal/campaign"
	"leanconsensus/internal/metrics"
)

// TestTerminalSaveSkipsEvictedEntries pins the ordering between
// eviction and terminal persistence: a runner persisting a terminal
// record races evictLocked, which may already have deleted the table
// entry and removed its record file. The guarded save must notice the
// entry is gone and write nothing — recreating the file would
// resurrect the evicted ID at the next boot, with disk and the
// in-memory table disagreeing.
func TestTerminalSaveSkipsEvictedEntries(t *testing.T) {
	st, err := openStateStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	s := &Server{state: st, reg: metrics.NewRegistry()}
	s.jobs, s.campaigns = s.newKind(jobKind), s.newKind(campaignKind)

	j := &job{admitted: admitted{id: "j-000001", created: time.Now(), done: make(chan struct{})}}
	j.state.Store(int32(stateDone))
	// Evicted (not in the table): the save must be a no-op.
	s.saveTerminal(s.jobs, j, recDone)
	if _, err := os.Stat(st.path(s.jobs, j.id)); !os.IsNotExist(err) {
		t.Fatalf("terminal save recreated an evicted job record (stat: %v)", err)
	}
	// Live: the save lands.
	s.jobs.entries[j.id] = j
	s.saveTerminal(s.jobs, j, recDone)
	if _, err := os.Stat(st.path(s.jobs, j.id)); err != nil {
		t.Fatalf("terminal save skipped a live job: %v", err)
	}

	cr := &campaignRun{admitted: admitted{id: "c-000001", created: time.Now(), done: make(chan struct{})}, camp: &campaign.Campaign{}}
	cr.state.Store(int32(stateDone))
	s.saveTerminal(s.campaigns, cr, recDone)
	if _, err := os.Stat(st.path(s.campaigns, cr.id)); !os.IsNotExist(err) {
		t.Fatalf("terminal save recreated an evicted campaign record (stat: %v)", err)
	}
	s.campaigns.entries[cr.id] = cr
	s.saveTerminal(s.campaigns, cr, recDone)
	if _, err := os.Stat(st.path(s.campaigns, cr.id)); err != nil {
		t.Fatalf("terminal save skipped a live campaign: %v", err)
	}
}
