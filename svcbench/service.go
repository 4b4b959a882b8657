package main

import (
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	lc "leanconsensus"
	"leanconsensus/internal/obslog"
	"leanconsensus/internal/obslog/store"
	"leanconsensus/internal/server"
)

// rig is one running service: server.New behind a real loopback
// http.Server, with durable directories armed as leanserve -journal-dir
// and -state-dir arm them, and the public Client the workloads drive it
// through.
type rig struct {
	srv    *server.Server
	hs     *http.Server
	served chan error
	url    string
	// client is the load generator's client: at most nproc connections.
	client *lc.Client
	// fsyncs counts journal segment fsyncs (the store's OnFsync hook),
	// and fsyncTime sums their durations.
	fsyncs, fsyncTime atomic.Int64
}

// boot starts a service over dir's journal directory — and its state
// directory when state is set — and returns it with its set-up time:
// from server.New to the first /healthz answered over a fresh
// connection. Over directories a previous service left behind, this is a
// real restart: the journal replays and records load.
func boot(dir string, state bool, tr *tracer) (*rig, time.Duration, error) {
	r := &rig{served: make(chan error, 1)}
	cfg := server.Config{
		JournalDir: filepath.Join(dir, "journal"),
		JournalStore: store.Options{OnFsync: func(d time.Duration) {
			r.fsyncs.Add(1)
			r.fsyncTime.Add(int64(d))
		}},
	}
	if state {
		cfg.StateDir = filepath.Join(dir, "state")
	}
	start := time.Now()
	srv, err := server.New(cfg)
	if err != nil {
		return nil, 0, fmt.Errorf("server.New: %w", err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		srv.Close()
		return nil, 0, err
	}
	r.srv = srv
	r.hs = &http.Server{Handler: tr.wrap(srv.Handler())}
	go func() { r.served <- r.hs.Serve(ln) }()
	r.url = "http://" + ln.Addr().String()

	probe := &http.Client{Transport: &http.Transport{DisableKeepAlives: true}, Timeout: 10 * time.Second}
	resp, err := probe.Get(r.url + "/healthz")
	if err != nil {
		r.close()
		return nil, 0, fmt.Errorf("first /healthz: %w", err)
	}
	resp.Body.Close()
	setup := time.Since(start)
	if resp.StatusCode != http.StatusOK {
		r.close()
		return nil, 0, fmt.Errorf("first /healthz: HTTP %d", resp.StatusCode)
	}

	conns := runtime.NumCPU()
	var rt http.RoundTripper = &http.Transport{MaxConnsPerHost: conns, MaxIdleConnsPerHost: conns}
	if tr != nil {
		rt = &tagTransport{base: rt, tr: tr}
	}
	r.client = lc.NewClient(r.url)
	r.client.HTTPClient = &http.Client{Transport: rt}
	return r, setup, nil
}

// close drains the service the way leanserve does on SIGINT — the
// server first, so streams end, then the HTTP listener — and waits for
// the serve loop to return.
func (r *rig) close() error {
	err := r.srv.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if e := r.hs.Shutdown(ctx); e != nil {
		r.hs.Close()
		err = errors.Join(err, e)
	}
	if e := <-r.served; !errors.Is(e, http.ErrServerClosed) {
		err = errors.Join(err, e)
	}
	if t, ok := r.client.HTTPClient.Transport.(interface{ CloseIdleConnections() }); ok {
		t.CloseIdleConnections()
	}
	return err
}

// opKey is the context key carrying a benchmark operation's tag.
type opKey struct{}

// opHeader carries the operation tag from the client transport to the
// server-side wrapper, so handler spans join the client's.
const opHeader = "X-Bench-Op"

// span is one timed interval at a layer boundary. Spans of one
// operation share its ID; Parent names the enclosing span.
type span struct {
	ID     string `json:"id"`
	Name   string `json:"name"`
	Start  int64  `json:"start"` // Unix nanoseconds
	End    int64  `json:"end"`
	Parent string `json:"parent"`
	Status int    `json:"status,omitempty"`
}

func (s span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// tracer records the server-side half of the spans: it wraps the
// service's handler and times every request the load generator tagged.
// It records only while on, so a traced run can measure an untraced
// window and a traced one against the same service.
type tracer struct {
	on atomic.Bool

	mu    sync.Mutex
	spans map[string][]span // by operation tag, in completion order
}

func newTracer() *tracer { return &tracer{spans: map[string][]span{}} }

// wrap times tagged requests through h. A nil tracer returns h itself.
func (t *tracer) wrap(h http.Handler) http.Handler {
	if t == nil {
		return h
	}
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		tag := r.Header.Get(opHeader)
		if tag == "" || !t.on.Load() {
			h.ServeHTTP(w, r)
			return
		}
		sw := &statusRecorder{ResponseWriter: w, status: http.StatusOK}
		start := time.Now()
		h.ServeHTTP(sw, r)
		end := time.Now()
		name, parent := "server.get", "client.get"
		switch {
		case r.Method == http.MethodPost && strings.HasSuffix(r.URL.Path, "/v1/jobs"):
			name, parent = "server.post_jobs", "client.submit"
		case r.Method == http.MethodPost && strings.HasSuffix(r.URL.Path, "/v1/campaigns"):
			name, parent = "server.post_campaigns", "client.submit"
		case strings.HasSuffix(r.URL.Path, "/stream"):
			name, parent = "server.stream", "client.stream"
		}
		t.mu.Lock()
		t.spans[tag] = append(t.spans[tag], span{ID: tag, Name: name,
			Start: start.UnixNano(), End: end.UnixNano(), Parent: parent, Status: sw.status})
		t.mu.Unlock()
	})
}

// take returns and forgets the server spans recorded for tag.
func (t *tracer) take(tag string) []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	s := t.spans[tag]
	delete(t.spans, tag)
	return s
}

// statusRecorder captures the response status and forwards flushes, so
// the service's SSE streams keep working through the wrapper.
type statusRecorder struct {
	http.ResponseWriter
	status int
}

func (w *statusRecorder) WriteHeader(status int) {
	w.status = status
	w.ResponseWriter.WriteHeader(status)
}

func (w *statusRecorder) Flush() {
	if f, ok := w.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}

func (w *statusRecorder) Unwrap() http.ResponseWriter { return w.ResponseWriter }

// tagTransport stamps the operation tag from the request context onto
// outgoing requests while the tracer is on.
type tagTransport struct {
	base http.RoundTripper
	tr   *tracer
}

func (t *tagTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	if tag, ok := req.Context().Value(opKey{}).(string); ok && t.tr.on.Load() {
		req = req.Clone(req.Context())
		req.Header.Set(opHeader, tag)
	}
	return t.base.RoundTrip(req)
}

func (t *tagTransport) CloseIdleConnections() {
	if c, ok := t.base.(interface{ CloseIdleConnections() }); ok {
		c.CloseIdleConnections()
	}
}

// lifecycle is one job's or campaign's journal timestamps (Unix ns).
type lifecycle struct{ admit, start, done int64 }

// journalTap subscribes to the service journal and keeps the lifecycle
// timestamps the stage breakdown needs, plus per-kind counts.
type journalTap struct {
	j    *obslog.Journal
	sub  *obslog.Sub
	stop chan struct{}
	done chan struct{}

	mu     sync.Mutex
	pos    uint64
	life   map[string]*lifecycle
	counts map[obslog.Kind]int
}

func tapJournal(j *obslog.Journal) *journalTap {
	t := &journalTap{
		j:      j,
		sub:    j.Subscribe(),
		stop:   make(chan struct{}),
		done:   make(chan struct{}),
		pos:    j.Seq(),
		life:   map[string]*lifecycle{},
		counts: map[obslog.Kind]int{},
	}
	go t.loop()
	return t
}

func (t *journalTap) loop() {
	defer close(t.done)
	var buf []obslog.Event
	for {
		select {
		case <-t.sub.C():
			buf = t.drain(buf[:0])
		case <-t.stop:
			t.drain(buf[:0])
			return
		}
	}
}

func (t *journalTap) drain(buf []obslog.Event) []obslog.Event {
	t.mu.Lock()
	defer t.mu.Unlock()
	buf, t.pos = t.j.Since(t.pos, buf)
	for _, e := range buf {
		t.counts[e.Kind]++
		var slot *int64
		l := t.life[e.ID]
		if l == nil {
			l = &lifecycle{}
		}
		switch e.Kind {
		case obslog.KindJobAdmit, obslog.KindCampaignStart:
			slot = &l.admit
		case obslog.KindJobStart:
			slot = &l.start
		case obslog.KindJobDone, obslog.KindCampaignDone:
			slot = &l.done
		default:
			continue
		}
		*slot = e.TS
		t.life[e.ID] = l
	}
	return buf
}

// close stops the tap after a last drain.
func (t *journalTap) close() {
	close(t.stop)
	<-t.done
	t.sub.Unsubscribe()
}

// lifecycleOf returns id's timestamps after draining what the journal
// already holds: the client sees a final status only after job.done is
// appended, so one drain suffices.
func (t *journalTap) lifecycleOf(id string) lifecycle {
	t.drain(nil)
	t.mu.Lock()
	defer t.mu.Unlock()
	if l := t.life[id]; l != nil {
		return *l
	}
	return lifecycle{}
}

// count returns how many events of kind the tap has seen.
func (t *journalTap) count(kind obslog.Kind) int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.counts[kind]
}

// observer is a leantop-style poller: every second it reads the journal
// (GET /v1/events?since=) and scrapes /metrics over its own connection,
// so journal and registry reads run beside the workload's writes.
type observer struct {
	client *lc.Client
	stop   chan struct{}
	done   chan struct{}

	mu     sync.Mutex
	phase  string
	events map[string][]float64 // query times (ms) by phase
	scrape map[string][]float64 // scrape times (ms) by phase
	errs   int
}

func startObserver(url string, since uint64) *observer {
	c := lc.NewClient(url)
	c.HTTPClient = &http.Client{Transport: &http.Transport{MaxConnsPerHost: 1}, Timeout: 10 * time.Second}
	o := &observer{client: c, stop: make(chan struct{}), done: make(chan struct{}),
		events: map[string][]float64{}, scrape: map[string][]float64{}}
	go o.loop(since)
	return o
}

func (o *observer) setPhase(p string) {
	o.mu.Lock()
	o.phase = p
	o.mu.Unlock()
}

func (o *observer) loop(since uint64) {
	defer close(o.done)
	tick := time.NewTicker(time.Second)
	defer tick.Stop()
	ctx := context.Background()
	for {
		select {
		case <-o.stop:
			return
		case <-tick.C:
		}
		t0 := time.Now()
		page, err := o.client.Events(ctx, since)
		t1 := time.Now()
		_, err2 := o.client.Metrics(ctx)
		t2 := time.Now()
		o.mu.Lock()
		if err == nil {
			since = page.Next
			o.events[o.phase] = append(o.events[o.phase], ms(t1.Sub(t0)))
		}
		if err2 == nil {
			o.scrape[o.phase] = append(o.scrape[o.phase], ms(t2.Sub(t1)))
		}
		if err != nil || err2 != nil {
			o.errs++
		}
		o.mu.Unlock()
	}
}

// close stops the poller and waits for it.
func (o *observer) close() {
	close(o.stop)
	<-o.done
	o.client.HTTPClient.Transport.(*http.Transport).CloseIdleConnections()
}
