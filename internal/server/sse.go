package server

import (
	"encoding/json"
	"net/http"
	"time"
)

// streamInterval is the progress cadence of the SSE endpoints.
const streamInterval = 100 * time.Millisecond

// streamSnapshots serves a unit of work's progress as server-sent
// events: an immediate "progress" event, one more per tick until the
// work's done channel closes, and then a terminal "done" event carrying
// the final snapshot. "done" is sent only for a terminal snapshot: a
// checkpoint-and-stop drain also closes done, handing queued or
// interrupted work to the successor process, and then the stream just
// ends, which a client reports as a stream without a done event. The
// stream also ends when the client goes away; a reconnecting client
// simply gets a fresh snapshot, since events are snapshots rather than
// deltas.
func streamSnapshots(w http.ResponseWriter, r *http.Request, wk work) {
	flusher, ok := w.(http.Flusher)
	if !ok {
		writeError(w, http.StatusInternalServerError, "server: response writer cannot stream")
		return
	}
	h := w.Header()
	h.Set("Content-Type", "text/event-stream")
	h.Set("Cache-Control", "no-cache")
	h.Set("Connection", "keep-alive")
	w.WriteHeader(http.StatusOK)

	write := func(event string) bool {
		data, err := json.Marshal(statusOf(wk))
		if err != nil {
			return false
		}
		if _, err := w.Write([]byte("event: " + event + "\ndata: ")); err != nil {
			return false
		}
		if _, err := w.Write(data); err != nil {
			return false
		}
		if _, err := w.Write([]byte("\n\n")); err != nil {
			return false
		}
		flusher.Flush()
		return true
	}

	if !write("progress") {
		return
	}
	ticker := time.NewTicker(streamInterval)
	defer ticker.Stop()
	for {
		select {
		case <-wk.hdr().done:
			if wk.finished() {
				write("done")
			}
			return
		case <-r.Context().Done():
			return
		case <-ticker.C:
			if !write("progress") {
				return
			}
		}
	}
}
