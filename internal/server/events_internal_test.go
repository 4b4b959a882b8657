package server

import (
	"bufio"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"
	"time"

	"leanconsensus/internal/api"
	"leanconsensus/internal/obslog"
)

// TestEventsFirehoseSubscribesBeforeHeaders is the regression test for
// the firehose's "respond first, subscribe later" race: the handler is
// parked right after flushing its 200, an event is journaled while the
// client already holds the response — exactly what a client that
// submits work on seeing the headers produces — and the stream must
// still deliver it. The seam makes the interleaving deterministic; the
// deadline only bounds the failure mode (a lost event never arrives).
func TestEventsFirehoseSubscribesBeforeHeaders(t *testing.T) {
	s, err := New(Config{Shards: 1, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	parked := make(chan struct{}, 1)
	resume := make(chan struct{})
	s.afterEventsFlush = func() {
		parked <- struct{}{}
		<-resume
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, ts.URL+"/v1/events", nil)
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Accept", "text/event-stream")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	<-parked

	tip, err := strconv.ParseUint(resp.Header.Get(api.JournalSeqHeader), 10, 64)
	if err != nil {
		t.Fatalf("%s header: %v", api.JournalSeqHeader, err)
	}
	s.journal.Append(obslog.KindJobAdmit, "j-parked", "", obslog.Labels{})
	close(resume)

	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		data, ok := strings.CutPrefix(sc.Text(), "data: ")
		if !ok {
			continue
		}
		var e obslog.Event
		if err := json.Unmarshal([]byte(data), &e); err != nil {
			t.Fatalf("bad SSE payload %q: %v", data, err)
		}
		if e.ID == "j-parked" {
			if e.Seq <= tip {
				t.Errorf("event seq %d not after the announced position %d", e.Seq, tip)
			}
			return
		}
	}
	t.Fatalf("stream ended without the event journaled after the headers: %v", sc.Err())
}
