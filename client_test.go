package leanconsensus_test

import (
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"

	"leanconsensus"
)

// TestStreamEventsReconnects pins the client's auto-reconnect contract
// against a scripted server: the first subscription is the plain
// firehose, a dropped connection is retried, and the retry resumes with
// ?since=<last seen seq> so the catch-up replay dedups instead of
// re-delivering.
func TestStreamEventsReconnects(t *testing.T) {
	var conns atomic.Int64
	writeEvent := func(w http.ResponseWriter, seq int) {
		fmt.Fprintf(w, "event: journal\ndata: {\"seq\":%d,\"ts\":1,\"kind\":\"job.admit\",\"labels\":{}}\n\n", seq)
		w.(http.Flusher).Flush()
	}
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		switch conns.Add(1) {
		case 1:
			if r.URL.Query().Has("since") {
				t.Error("first subscription sent ?since=: the firehose starts from now")
			}
			w.Header().Set("Content-Type", "text/event-stream")
			writeEvent(w, 1)
			writeEvent(w, 2)
			// Connection drops here (handler returns): the client must
			// treat it as transient and reconnect.
		default:
			if got := r.URL.Query().Get("since"); got != "2" {
				t.Errorf("reconnect since = %q, want 2 (resume from last seen)", got)
			}
			w.Header().Set("Content-Type", "text/event-stream")
			writeEvent(w, 2) // catch-up overlap: must be deduplicated
			writeEvent(w, 3)
			<-r.Context().Done()
		}
	}))
	defer ts.Close()

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	var got []uint64
	errc := make(chan error, 1)
	go func() {
		errc <- leanconsensus.NewClient(ts.URL).StreamEvents(ctx, func(e leanconsensus.Event) {
			got = append(got, e.Seq)
			if e.Seq == 3 {
				cancel()
			}
		})
	}()
	select {
	case err := <-errc:
		if err != context.Canceled {
			t.Fatalf("StreamEvents = %v, want context.Canceled", err)
		}
	case <-time.After(25 * time.Second):
		t.Fatal("stream never completed")
	}
	want := []uint64{1, 2, 3}
	if len(got) != len(want) {
		t.Fatalf("events = %v, want %v (overlap deduplicated)", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("events = %v, want %v", got, want)
		}
	}
	if conns.Load() < 2 {
		t.Fatalf("%d connections, want a reconnect", conns.Load())
	}
}

// TestStreamEventsResumesFirstStream: a firehose stream that drops
// before delivering any event still resumes from where it started — the
// position the service announced in X-Lean-Journal-Seq — instead of
// reconnecting "from now" and silently skipping whatever was journaled
// in between.
func TestStreamEventsResumesFirstStream(t *testing.T) {
	var conns atomic.Int64
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/event-stream")
		switch conns.Add(1) {
		case 1:
			w.Header().Set("X-Lean-Journal-Seq", "7")
			w.WriteHeader(http.StatusOK)
			w.(http.Flusher).Flush()
			// Dropped before any event.
		default:
			if got := r.URL.Query().Get("since"); got != "7" {
				t.Errorf("reconnect since = %q, want 7 (the first stream's announced start)", got)
			}
			w.Header().Set("X-Lean-Journal-Seq", "9")
			fmt.Fprint(w, "event: journal\ndata: {\"seq\":8,\"ts\":1,\"kind\":\"job.admit\",\"labels\":{}}\n\n")
			w.(http.Flusher).Flush()
			<-r.Context().Done()
		}
	}))
	defer ts.Close()

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	var got []uint64
	err := leanconsensus.NewClient(ts.URL).StreamEvents(ctx, func(e leanconsensus.Event) {
		got = append(got, e.Seq)
		cancel()
	})
	if err != context.Canceled {
		t.Fatalf("StreamEvents = %v, want context.Canceled", err)
	}
	if len(got) != 1 || got[0] != 8 {
		t.Fatalf("events = %v, want [8] (the catch-up replay)", got)
	}
}

// TestStreamEventsStopsOnAPIError: an HTTP-level rejection is terminal,
// not a retry loop against a server that is saying no.
func TestStreamEventsStopsOnAPIError(t *testing.T) {
	var conns atomic.Int64
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		conns.Add(1)
		http.Error(w, `{"error":"journal disabled"}`, http.StatusNotFound)
	}))
	defer ts.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	err := leanconsensus.NewClient(ts.URL).StreamEvents(ctx, func(leanconsensus.Event) {})
	var apiErr *leanconsensus.APIError
	if !asAPIError(err, &apiErr) || apiErr.StatusCode != http.StatusNotFound {
		t.Fatalf("StreamEvents = %v, want the 404 APIError", err)
	}
	if conns.Load() != 1 {
		t.Fatalf("%d connections, want no retry after an API rejection", conns.Load())
	}
}

// asAPIError is errors.As without the import dance in assertions.
func asAPIError(err error, target **leanconsensus.APIError) bool {
	for err != nil {
		if e, ok := err.(*leanconsensus.APIError); ok {
			*target = e
			return true
		}
		u, ok := err.(interface{ Unwrap() error })
		if !ok {
			return false
		}
		err = u.Unwrap()
	}
	return false
}

// TestEventQueryRoundTrip checks the typed query encodes exactly what
// the server parses.
func TestEventQueryRoundTrip(t *testing.T) {
	var gotURL string
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		gotURL = r.URL.String()
		fmt.Fprint(w, `{"events":[],"next":9,"first":4}`)
	}))
	defer ts.Close()
	after := time.Date(2026, 8, 8, 12, 0, 0, 0, time.UTC)
	page, err := leanconsensus.NewClient(ts.URL).QueryEvents(context.Background(), leanconsensus.EventQuery{
		Since: 7, Kind: "job.done", ID: "j-000001", Parent: "c-000001",
		After: after, Limit: 5,
	})
	if err != nil {
		t.Fatal(err)
	}
	q, err := http.NewRequest(http.MethodGet, gotURL, nil)
	if err != nil {
		t.Fatal(err)
	}
	v := q.URL.Query()
	if v.Get("since") != "7" || v.Get("kind") != "job.done" || v.Get("id") != "j-000001" ||
		v.Get("parent") != "c-000001" || v.Get("limit") != "5" {
		t.Fatalf("query = %s", gotURL)
	}
	if ts, err := time.Parse(time.RFC3339Nano, v.Get("after")); err != nil || !ts.Equal(after) {
		t.Fatalf("after = %q (%v)", v.Get("after"), err)
	}
	if v.Has("before") {
		t.Fatalf("zero Before leaked into the query: %s", gotURL)
	}
	if page.Next != 9 || page.First != 4 {
		t.Fatalf("page = %+v, want next 9 first 4", page)
	}
}
