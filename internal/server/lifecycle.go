package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"leanconsensus/internal/metrics"
	"leanconsensus/internal/obslog"
)

// One lifecycle for admitted work. A job batch and a campaign share one
// contract — admitted → done|failed, persisted before the 202, re-run or
// resumed at boot, evicted together with their record — and this file
// is that contract, once. A kind descriptor carries what differs
// between the two kinds of work (ID prefix, routes, record directory,
// metrics, journal kinds); the work interface carries the per-kind code
// proper: decoding the body, the run body, and the status snapshot.

// workState is a unit of work's lifecycle position.
type workState int32

const (
	stateQueued workState = iota
	stateRunning
	stateDone
	stateFailed
)

// name renders the state for the wire.
func (s workState) name() string {
	switch s {
	case stateQueued:
		return "queued"
	case stateRunning:
		return "running"
	case stateDone:
		return "done"
	default:
		return "failed"
	}
}

// admitted is the lifecycle header every kind of work embeds.
type admitted struct {
	id      string
	created time.Time
	corr    string  // X-Lean-Correlation: cross-process parent of the work's root events
	tenant  string  // X-Lean-Tenant: the admission bucket the work counts against
	tb      *tenant // the bucket itself, for reservation returns

	// restored, when non-nil, is a terminal snapshot loaded from the
	// state store after a restart; it is served verbatim.
	restored json.RawMessage

	state atomic.Int32 // workState
	errMu sync.Mutex
	err   error

	// done is closed when the work finishes (done or failed), or when a
	// checkpoint-and-stop drain hands it, unfinished, to the successor
	// process.
	done chan struct{}
}

// admit stamps the header of freshly decoded work with its identity.
func (h *admitted) admit(id string, created time.Time, corr, tenant string) {
	h.id, h.created, h.corr, h.tenant = id, created, corr, tenant
	h.done = make(chan struct{})
}

func (h *admitted) hdr() *admitted { return h }

// statusName renders the current lifecycle state.
func (h *admitted) statusName() string { return workState(h.state.Load()).name() }

// finished reports whether the work has reached a terminal state.
func (h *admitted) finished() bool {
	st := workState(h.state.Load())
	return st == stateDone || st == stateFailed
}

// errText is the failure message for the status body ("" unless failed).
func (h *admitted) errText() string {
	h.errMu.Lock()
	defer h.errMu.Unlock()
	if h.err == nil {
		return ""
	}
	return h.err.Error()
}

// work is one admitted unit of some kind: the header plus the per-kind
// code.
type work interface {
	hdr() *admitted
	finished() bool
	// instances is the size of the work's admission reservation.
	instances() int64
	// payload is the decoded body as the state record stores it; decode
	// re-reads it at boot.
	payload() json.RawMessage
	// admitLabels are the kind's own labels on the admission event.
	admitLabels() obslog.Labels
	// execute is the run body. It owns the reservation once running and
	// returns every unit of it to the gate, finished or not.
	execute(s *Server) error
	// snapshot assembles the live wire status.
	snapshot() any
}

// statusOf is the work's wire status: a restored terminal record
// verbatim — the record is the history — else the live snapshot.
func statusOf(w work) any {
	if r := w.hdr().restored; r != nil {
		return r
	}
	return w.snapshot()
}

// kind describes one kind of admitted work and holds its table.
type kind struct {
	noun   string // "job" | "campaign": error texts and the shed event's detail
	prefix string // ID prefix: IDs are prefix-%06d
	dir    string // route segment and record directory
	what   string // the lifecycle counters' help noun

	admitEvent, startEvent, doneEvent obslog.Kind // startEvent 0: none

	// decode turns a submission body into unadmitted work; every error
	// is a client error. maxBatch bounds job batches (0 at boot, where
	// the work was already admitted once).
	decode func(s *Server, body io.Reader, maxBatch int) (work, error)
	// blank returns empty work to carry a restored terminal record.
	blank func() work
	// bodyField selects the record field that stores the decoded body.
	bodyField func(*record) *json.RawMessage

	accepted, rejected, completed, failed *metrics.Counter
	running                               *metrics.Gauge

	table
}

// table is one kind's in-memory table. MaxJobsKept bounds each table
// separately.
type table struct {
	entries map[string]work
	order   []string // creation order, for eviction
	skip    int      // eviction scan frontier into order
	seq     uint64   // the last minted ID number
}

func (t *table) insert(w work) {
	id := w.hdr().id
	t.entries[id] = w
	t.order = append(t.order, id)
}

// newKind instantiates a kind descriptor for this server: an empty
// table and the kind's lifecycle metrics.
func (s *Server) newKind(k kind) *kind {
	total := "leanconsensus_" + k.dir + "_total"
	counter := func(event string) *metrics.Counter {
		return s.reg.Counter(total+metrics.Labels("event", event), k.what+" by lifecycle event")
	}
	k.accepted, k.rejected = counter("accepted"), counter("rejected")
	k.completed, k.failed = counter("completed"), counter("failed")
	k.running = s.reg.Gauge("leanconsensus_"+k.dir+"_running", k.dir+" currently executing")
	k.entries = make(map[string]work)
	return &k
}

// kinds lists the server's kinds in boot and report order.
func (s *Server) kinds() [2]*kind { return [2]*kind{s.jobs, s.campaigns} }

// handleSubmit admits one submission of kind k: decode and fully
// validate (400 on any client error), reserve its instances against the
// admission gate (429 past the high-water mark), persist the admission
// when durable state is armed, and run it asynchronously.
func (s *Server) handleSubmit(k *kind) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		corr, err := correlationFrom(r)
		var ten string
		if err == nil {
			ten, err = tenantFrom(r)
		}
		var wk work
		if err == nil {
			wk, err = k.decode(s, http.MaxBytesReader(w, r.Body, 1<<20), s.cfg.MaxBatch)
		}
		if err != nil {
			k.rejected.Inc()
			writeError(w, http.StatusBadRequest, "%v", err)
			return
		}

		total := wk.instances()
		tb, cur, ok := s.reserve(ten, total)
		if !ok {
			k.rejected.Inc()
			s.journal.Append(obslog.KindJobShed, "", corr,
				obslog.Labels{Count: total, Tenant: ten, Detail: k.noun})
			w.Header().Set("Retry-After", strconv.FormatInt(s.retryAfter(cur), 10))
			writeError(w, http.StatusTooManyRequests,
				"server: %d instances queued (high-water %d); retry later", cur, s.cfg.HighWater)
			return
		}

		h := wk.hdr()
		s.mu.Lock()
		if s.closed {
			s.mu.Unlock()
			s.release(tb, total)
			k.rejected.Inc()
			writeError(w, http.StatusServiceUnavailable, "server: draining, not accepting %s", k.dir)
			return
		}
		k.seq++
		h.admit(fmt.Sprintf("%s-%06d", k.prefix, k.seq), time.Now(), corr, ten)
		h.tb = tb
		if s.state != nil {
			// Persist the admission before it is acknowledged: the durable
			// ID contract means a 202'd ID must resolve after any restart.
			// A record that cannot be written is an admission that never
			// happened.
			err := s.state.save(k, wk, recAdmitted, nil)
			if err == nil {
				err = s.state.saveSeqs(s.jobs.seq, s.campaigns.seq)
			}
			if err != nil {
				// Roll back everything the failed admission touched — the
				// record too: an orphaned "admitted" file would re-run at the
				// next boot as work the client was told never existed.
				s.state.remove(k, h.id)
				k.seq--
				s.mu.Unlock()
				s.release(tb, total)
				k.rejected.Inc()
				writeError(w, http.StatusInternalServerError, "%v", err)
				return
			}
		}
		k.insert(wk)
		s.evictLocked(k)
		s.wg.Add(1)
		s.mu.Unlock()

		k.accepted.Inc()
		admit := wk.admitLabels()
		admit.Count, admit.Tenant = total, ten
		s.journal.Append(k.admitEvent, h.id, corr, admit)
		go s.run(k, wk)

		loc := "/v1/" + k.dir + "/" + h.id
		w.Header().Set("Location", loc)
		writeJSON(w, http.StatusAccepted, submitResponse{
			ID:              h.id,
			Status:          h.statusName(),
			Location:        loc,
			QueuedInstances: s.queued.Load(),
		})
	}
}

// run executes one admitted unit of work once it wins an execution slot.
// It owns the work's queued-instance reservation; the run body returns
// it to the gate as the work progresses.
func (s *Server) run(k *kind, w work) {
	defer s.wg.Done()
	h := w.hdr()
	select {
	case s.sem <- struct{}{}:
	case <-s.stopCtx.Done():
		// Checkpoint-and-stop drain (durable state armed): the work never
		// started, its record is still "admitted", and the successor
		// process re-runs it — hand back the reservation and leave.
		s.release(h.tb, w.instances())
		close(h.done)
		return
	}
	defer func() { <-s.sem }()

	h.state.Store(int32(stateRunning))
	k.running.Inc()
	defer k.running.Dec()
	if k.startEvent != 0 {
		s.journal.Append(k.startEvent, h.id, h.corr, obslog.Labels{})
	}

	// Without durable state, stopCtx is never cancelled before the drain
	// completes; with it, Close cancels and a campaign stops at the next
	// cell boundary.
	err := w.execute(s)
	if err != nil && s.state != nil && s.stopCtx.Err() != nil && errors.Is(err, context.Canceled) {
		// Interrupted by the drain, not failed: completed cells are in the
		// checkpoint, the record stays "admitted", and the next boot on
		// this state dir resumes the run. The work goes back to "queued"
		// for any status read racing the shutdown.
		h.state.Store(int32(stateQueued))
		close(h.done)
		return
	}
	outcome, status := "ok", recDone
	if err != nil {
		h.errMu.Lock()
		h.err = err
		h.errMu.Unlock()
		h.state.Store(int32(stateFailed))
		k.failed.Inc()
		outcome, status = err.Error(), recFailed
	} else {
		h.state.Store(int32(stateDone))
		k.completed.Inc()
	}
	if s.state != nil {
		s.saveTerminal(k, w, status)
	}
	s.journal.Append(k.doneEvent, h.id, h.corr, obslog.Labels{Detail: outcome})
	close(h.done)
}

// saveTerminal persists w's terminal record, under s.mu and only while w
// is still the table's entry: the work is already in a terminal state,
// so a concurrent evictLocked may have deleted the entry and removed its
// record file, and an unguarded write here would recreate the file —
// resurrecting the evicted ID at the next boot, with disk and table
// disagreeing. Holding s.mu orders the two: either the save lands first
// and eviction removes it, or eviction wins and the save is skipped.
//
// A failed record write leaves the record "admitted": the next boot
// re-runs the work (a campaign resumes from its checkpoint) and,
// results being deterministic, serves the same outcome — so the error
// needs no further handling.
func (s *Server) saveTerminal(k *kind, w work, status string) {
	final, err := json.Marshal(w.snapshot())
	if err != nil {
		return
	}
	id := w.hdr().id
	s.mu.Lock()
	defer s.mu.Unlock()
	if k.entries[id] != w {
		return
	}
	if s.state.save(k, w, status, final) == nil {
		// A campaign's checkpoint has served its purpose once the terminal
		// record is durable; eviction would remove it anyway.
		os.Remove(s.state.checkpointPath(id)) //nolint:errcheck // jobs have none
	}
}

// evictLocked trims k's table to MaxJobsKept via the finished-first
// eviction helper; an evicted entry's durable record (and checkpoint) is
// forgotten with it. Unfinished work is never evicted.
func (s *Server) evictLocked(k *kind) {
	k.order = evictFinished(k.entries, k.order, s.cfg.MaxJobsKept, &k.skip, func(id string) {
		if s.state != nil {
			s.state.remove(k, id)
		}
	})
}

// lookup returns the work or writes a 404.
func (s *Server) lookup(w http.ResponseWriter, k *kind, id string) work {
	s.mu.Lock()
	wk := k.entries[id]
	s.mu.Unlock()
	if wk == nil {
		writeError(w, http.StatusNotFound, "server: unknown %s %q", k.noun, id)
	}
	return wk
}

// handleStatus reports one unit of work's status and, when finished,
// its results.
func (s *Server) handleStatus(k *kind) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		if wk := s.lookup(w, k, r.PathValue("id")); wk != nil {
			writeJSON(w, http.StatusOK, statusOf(wk))
		}
	}
}

// handleStream serves one unit of work's progress as server-sent events.
func (s *Server) handleStream(k *kind) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		if wk := s.lookup(w, k, r.PathValue("id")); wk != nil {
			streamSnapshots(w, r, wk)
		}
	}
}
