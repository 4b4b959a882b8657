// Command svcbench is the service benchmark: it runs one workload
// against leanserve's service in process — server.New with a durable
// journal directory (and state directory, on the closed-loop
// workloads), behind a real loopback http.Server,
// driven through the public Client — checks every answer, and prints
// the end-to-end metrics (-trace 0) or the per-layer breakdown
// (-trace 1). The last line of standard output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// Run it with run.sh from the repository root; README.md describes the
// workloads and every metric.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"slices"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"

	"leanconsensus/internal/arena"
	"leanconsensus/internal/obslog"
)

// setupBoots is how many restarts set-up time is the median of.
const setupBoots = 21

// watchdog bounds a whole run: a hang exits non-zero without a result.
const watchdog = 170 * time.Second

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	os.Exit(run())
}

func run() int {
	flags := flag.NewFlagSet("svcbench", flag.ContinueOnError)
	name := flags.String("workload", "", "workload: small_jobs, bulk_jobs or campaign_sweep")
	seed := flags.Uint64("seed", 1, "workload seed: every generated input derives from it")
	seconds := flags.Int("seconds", 20, "measured window in seconds")
	traced := flags.Int("trace", 0, "0: end-to-end metrics with tracing off; 1: per-layer metrics")
	out := flags.String("out", "svcbench-out", "directory for state, run records and span dumps")
	if err := flags.Parse(os.Args[1:]); err != nil {
		return 2
	}
	if *seconds < 1 || (*traced != 0 && *traced != 1) {
		fmt.Fprintln(os.Stderr, "svcbench: -seconds must be positive and -trace 0 or 1")
		return 2
	}
	time.AfterFunc(watchdog, func() {
		fmt.Fprintln(os.Stderr, "svcbench: watchdog: run exceeded", watchdog)
		os.Exit(3)
	})
	b := &bench{workload: *name, seed: *seed, window: time.Duration(*seconds) * time.Second,
		traced: *traced == 1, out: *out}
	res, err := b.run()
	if err != nil {
		fmt.Fprintln(os.Stderr, "svcbench:", err)
		return 1
	}
	printResult(os.Stdout, b, res)
	if !res.Correct {
		fmt.Fprintf(os.Stderr, "svcbench: %d of %d operations failed: %v\n", res.Failed, res.Attempted, b.ledger.First)
		return 1
	}
	return 0
}

// bench is one run.
type bench struct {
	workload string
	seed     uint64
	window   time.Duration
	traced   bool
	out      string

	ledger ledger
	env    map[string]any
	spans  []span
}

// phase is one measured window of a workload against the measured
// service.
type phase struct {
	ops        []*op
	start, end time.Time
	cpu        time.Duration
	mem        [2]runtime.MemStats
	fsyncs     int64
	fsyncTime  time.Duration
	events     uint64 // journal events appended during the window
}

// decided sums the decided instances of the phase's successful answers.
func (p *phase) decided() (n int64) {
	for _, o := range p.ops {
		if o.err == nil {
			n += o.instances()
		}
	}
	return n
}

// latencies are the due→received times (ms) of the successful answers.
func (p *phase) latencies() []float64 {
	var l []float64
	for _, o := range p.ops {
		if o.err == nil {
			l = append(l, ms(o.latency()))
		}
	}
	return l
}

func (b *bench) run() (*result, error) {
	calib := calibrate()
	w, err := newWorkload(b.workload, b.seed)
	if err != nil {
		return nil, err
	}
	dir := filepath.Join(b.out, fmt.Sprintf("state-%s-%d", b.workload, os.Getpid()))
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	var tr *tracer
	if b.traced {
		tr = newTracer()
	}
	ctx := context.Background()

	// Warm-up: serve a history of small jobs, then the workload itself.
	// This fills caches and leaves a realistic state and journal
	// directory for the restarts to load.
	r, _, err := boot(dir, w.durableState(), tr)
	if err != nil {
		return nil, err
	}
	hist, err := serveHistory(ctx, r, b.seed)
	if err != nil {
		r.close()
		return nil, err
	}
	for _, o := range append(hist, w.drive(ctx, r, w.warmup())...) {
		b.ledger.add(o.err)
	}
	if err := r.close(); err != nil {
		return nil, fmt.Errorf("closing the warm-up service: %w", err)
	}
	// Each restart boots over the directories the previous service left.
	// An idle boot and drain add no journal events and no records, so
	// every boot loads the history the warm-up left.
	setups := make([]float64, setupBoots)
	for i := range setups {
		// A restart is a fresh process in production: collect the
		// previous phase's garbage so no GC cycle lands inside set-up.
		runtime.GC()
		var d time.Duration
		if r, d, err = boot(dir, w.durableState(), tr); err != nil {
			return nil, fmt.Errorf("restart %d: %w", i, err)
		}
		setups[i] = d.Seconds()
		if i < len(setups)-1 {
			if err := r.close(); err != nil {
				return nil, fmt.Errorf("restart %d: %w", i, err)
			}
		}
	}
	if err := resetPeakRSS(); err != nil {
		return nil, fmt.Errorf("resetting the peak resident set mark: %w", err)
	}

	obs := startObserver(r.url, r.srv.Journal().Seq())
	var untraced, traced *phase
	var tap *journalTap
	var peakMB float64
	if !b.traced {
		obs.setPhase("untraced")
		untraced = b.measure(ctx, w, r, b.window)
		if peakMB, err = peakRSSMB(); err != nil {
			return nil, err
		}
	} else {
		obs.setPhase("untraced")
		untraced = b.measure(ctx, w, r, b.window/2)
		tap = tapJournal(r.srv.Journal())
		tr.on.Store(true)
		obs.setPhase("traced")
		traced = b.measure(ctx, w, r, b.window/2)
		tr.on.Store(false)
		tap.close()
	}
	obs.close()

	var want [2]int64
	for _, p := range []*phase{untraced, traced} {
		if p == nil {
			continue
		}
		for _, o := range p.ops {
			b.ledger.add(o.err)
			if o.err == nil {
				want[0] += o.decided[0]
				want[1] += o.decided[1]
			}
		}
	}
	b.ledger.add(checkMetrics(ctx, r, b.workload == "campaign_sweep", want))
	dropped := r.srv.JournalDropped()
	if err := r.close(); err != nil {
		return nil, fmt.Errorf("closing the measured service: %w", err)
	}

	b.env = environment(dir, w.durableState(), calib)
	res := &result{Attempted: b.ledger.Attempted, Failed: b.ledger.Failed, Metrics: map[string]metric{}}
	res.Correct = res.Failed == 0
	if !b.traced {
		b.endToEnd(untraced, setups, peakMB, res.Metrics)
	} else {
		b.perLayer(untraced, traced, tr, tap, obs, dropped, res.Metrics)
		res.Metrics["loadgen.calibration_ns"] = metric{float64(calib), "ns"}
		if err := runProbes(b.seed, res.Metrics); err != nil {
			return nil, err
		}
		if err := b.writeJSON("spans", b.spans); err != nil {
			return nil, err
		}
	}
	record := map[string]any{"workload": b.workload, "seed": b.seed, "seconds": b.window.Seconds(),
		"trace": b.traced, "env": b.env, "ledger": b.ledger, "result": res}
	if err := b.writeJSON("run", record); err != nil {
		return nil, err
	}
	return res, nil
}

// measure runs the workload for window and takes the phase's CPU,
// memory, fsync and journal deltas.
func (b *bench) measure(ctx context.Context, w workload, r *rig, window time.Duration) *phase {
	p := &phase{}
	if b.traced {
		runtime.ReadMemStats(&p.mem[0])
	}
	seq0, fs0, ft0, cpu0 := r.srv.Journal().Seq(), r.fsyncs.Load(), r.fsyncTime.Load(), cpuTime()
	p.start = time.Now()
	p.ops = w.drive(ctx, r, window)
	p.end = time.Now()
	p.cpu = cpuTime() - cpu0
	p.fsyncs = r.fsyncs.Load() - fs0
	p.fsyncTime = time.Duration(r.fsyncTime.Load() - ft0)
	p.events = r.srv.Journal().Seq() - seq0
	if b.traced {
		runtime.ReadMemStats(&p.mem[1])
	}
	return p
}

// endToEnd fills the end-to-end metrics from the untraced phase; peakMB
// is the peak resident set over that window.
func (b *bench) endToEnd(p *phase, setups []float64, peakMB float64, out map[string]metric) {
	lat := p.latencies()
	decided := float64(p.decided())
	out["latency_p50_ms"] = metric{percentile(lat, 0.5), "ms"}
	out["throughput_inst_per_s"] = metric{decided / p.end.Sub(p.start).Seconds(), "1/s"}
	out["cpu_us_per_inst"] = metric{ratio(float64(p.cpu)/float64(time.Microsecond), decided), "us"}
	b.env["setup_s_samples"] = slices.Clone(setups) // in boot order; median sorts
	out["setup_s"] = metric{median(setups), "s"}
	out["rss_peak_mb"] = metric{peakMB, "MB"}
	// What the window's latency depends on besides the code: the disk's
	// fsync latency and how late the load generator woke.
	var lag []float64
	for _, o := range p.ops {
		lag = append(lag, ms(o.sent.Sub(o.due)))
	}
	b.env["journal_fsync_ms_mean"] = ratio(ms(p.fsyncTime), float64(p.fsyncs))
	b.env["loadgen_lag_ms_p99"] = percentile(lag, 0.99)
	b.env["samples"] = len(lat)
	// Each sample as [seconds into the window it was due, latency ms],
	// so the tail can be placed in time.
	var samples [][2]float64
	for _, o := range p.ops {
		if o.err == nil {
			samples = append(samples, [2]float64{o.due.Sub(p.start).Seconds(), ms(o.latency())})
		}
	}
	b.env["latency_samples"] = samples
}

// perLayer fills the per-layer metrics from the traced phase, the
// tracer's handler spans, the journal tap and the observer.
func (b *bench) perLayer(untraced, p *phase, tr *tracer, tap *journalTap, obs *observer, dropped uint64, out map[string]metric) {
	var submit, codec, d2r, postJobs, postCamps, queue, run, residue, lag, specRate []float64
	var requests, shed int
	for _, o := range p.ops {
		id := o.spanID()
		child := func(name string, start, end int64) {
			b.spans = append(b.spans, span{ID: id, Name: name, Start: start, End: end, Parent: "e2e"})
		}
		server := tr.take(o.tag)
		requests += len(server)
		var posts []span
		for _, s := range server {
			s.ID = id
			if s.Status == 429 || s.Status == 503 {
				shed++
			}
			switch s.Name {
			case "server.post_jobs":
				postJobs = append(postJobs, ms(s.dur()))
				posts = append(posts, s)
			case "server.post_campaigns":
				postCamps = append(postCamps, ms(s.dur()))
				posts = append(posts, s)
			}
			b.spans = append(b.spans, s)
		}
		for i, c := range o.submits {
			submit = append(submit, ms(c.dur()))
			child("client.submit", c.start.UnixNano(), c.end.UnixNano())
			if len(posts) == len(o.submits) {
				codec = append(codec, ms(c.dur()-posts[i].dur()))
			}
		}
		for _, c := range o.streams {
			child("client.stream", c.start.UnixNano(), c.end.UnixNano())
		}
		lag = append(lag, ms(o.sent.Sub(o.due)))
		child("loadgen.lag", o.due.UnixNano(), o.sent.UnixNano())
		if o.err != nil {
			continue
		}
		for _, r := range o.results {
			specRate = append(specRate, ratio(float64(r.Instances), r.ElapsedMS/1000))
		}
		st := stages{E2E: o.latency(), Lag: o.sent.Sub(o.due)}
		for _, c := range o.submits {
			st.Submit += c.dur()
		}
		first, last := tap.lifecycleOf(o.ids[0]), tap.lifecycleOf(o.ids[len(o.ids)-1])
		if first.start != 0 { // a job: admit → start → done
			st.Queue = time.Duration(first.start - first.admit)
			queue = append(queue, ms(st.Queue))
			child("server.queue_wait", first.admit, first.start)
			st.Run = time.Duration(last.done - first.start)
			child("server.run", first.start, last.done)
		} else { // campaigns journal no start: run spans admission → done
			st.Run = time.Duration(last.done - first.admit)
			child("server.run", first.admit, last.done)
		}
		st.DoneToResult = o.received.Sub(time.Unix(0, last.done))
		child("client.done_to_result", last.done, o.received.UnixNano())
		b.spans = append(b.spans, span{ID: id, Name: "e2e", Start: o.due.UnixNano(), End: o.received.UnixNano()})
		run = append(run, ms(st.Run))
		d2r = append(d2r, ms(st.DoneToResult))
		residue = append(residue, ms(st.residue()))
	}
	nops := float64(max(len(p.ops), 1))
	decided := float64(max(p.decided(), 1))
	out["client.submit_ms.p50"] = metric{median(submit), "ms"}
	out["client.codec_ms.p50"] = metric{median(codec), "ms"}
	out["client.done_to_result_ms.p50"] = metric{median(d2r), "ms"}
	out["server.post_jobs_ms.p50"] = metric{median(postJobs), "ms"}
	out["server.post_jobs_ms.p99"] = metric{percentile(postJobs, 0.99), "ms"}
	out["server.post_campaigns_ms.p50"] = metric{median(postCamps), "ms"}
	out["server.queue_wait_ms.p50"] = metric{median(queue), "ms"}
	out["server.queue_wait_ms.p99"] = metric{percentile(queue, 0.99), "ms"}
	out["server.run_ms.p50"] = metric{median(run), "ms"}
	out["server.requests_per_job"] = metric{float64(requests) / nops, "count"}
	out["server.shed"] = metric{float64(shed), "count"}
	out["server.unaccounted_ms.p50"] = metric{median(residue), "ms"}
	out["arena.spec_inst_per_s"] = metric{median(specRate), "1/s"}
	cells := tap.count(obslog.KindCellDone)
	out["campaign.checkpoints_per_cell"] = metric{float64(tap.count(obslog.KindCheckpoint)) / float64(max(cells, 1)), "count"}
	out["obslog.events_per_job"] = metric{float64(p.events) / nops, "count"}
	out["obslog.dropped"] = metric{float64(dropped), "count"}
	out["obslog.fsyncs_per_job"] = metric{float64(p.fsyncs) / nops, "count"}
	obs.mu.Lock()
	b.env["observer_errors"] = obs.errs
	out["obslog.events_query_ms.p50"] = metric{median(obs.events["traced"]), "ms"}
	out["metrics.scrape_ms.p50"] = metric{median(obs.scrape["traced"]), "ms"}
	obs.mu.Unlock()
	m0, m1 := &p.mem[0], &p.mem[1]
	out["runtime.allocs_per_inst"] = metric{float64(m1.Mallocs-m0.Mallocs) / decided, "count"}
	out["runtime.alloc_bytes_per_inst"] = metric{float64(m1.TotalAlloc-m0.TotalAlloc) / decided, "B"}
	out["runtime.gc_cycles_per_kinst"] = metric{1000 * float64(m1.NumGC-m0.NumGC) / decided, "count"}
	out["loadgen.lag_p99_ms"] = metric{percentile(lag, 0.99), "ms"}
	out["e2e.latency_p95_ms"] = metric{percentile(untraced.latencies(), 0.95), "ms"}
	out["trace.overhead"] = metric{ratio(median(p.latencies()), median(untraced.latencies())), "ratio"}
	out["failed_share"] = metric{b.ledger.share(), "ratio"}
}

// environment records what the numbers depend on besides the code.
func environment(dir string, durableState bool, calib time.Duration) map[string]any {
	return map[string]any{
		"nproc":                 runtime.NumCPU(),
		"GOMAXPROCS":            runtime.GOMAXPROCS(0),
		"go":                    runtime.Version(),
		"pool_shards":           arena.DefaultShards,
		"pool_workers":          arena.DefaultWorkers,
		"journal_dir":           true,
		"state_dir":             durableState,
		"state_fs":              fsType(dir),
		"calibration_ns":        calib.Nanoseconds(),
		"client_max_conns":      runtime.NumCPU(),
		"injected_net_delay_ms": 0,
	}
}

// fsType names the filesystem holding dir.
func fsType(dir string) string {
	var st syscall.Statfs_t
	if err := syscall.Statfs(dir, &st); err != nil {
		return "unknown"
	}
	switch st.Type {
	case 0x01021994:
		return "tmpfs"
	case 0xef53:
		return "ext4"
	case 0x58465342:
		return "xfs"
	case 0x9123683e:
		return "btrfs"
	case 0x794c7630:
		return "overlayfs"
	}
	return fmt.Sprintf("0x%x", st.Type)
}

// calibSink keeps the calibration loop from being optimized away.
var calibSink uint64

// calibrate times a fixed integer loop (best of five), so runs on
// different machines can be compared as ratios.
func calibrate() time.Duration {
	best := time.Duration(1<<63 - 1)
	for i := 0; i < 5; i++ {
		t0 := time.Now()
		x := uint64(0x9e3779b97f4a7c15)
		for k := 0; k < 1<<22; k++ {
			x ^= x << 13
			x ^= x >> 7
			x ^= x << 17
		}
		calibSink += x
		best = min(best, time.Since(t0))
	}
	return best
}

// cpuTime is the process's user plus system CPU time.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// resetPeakRSS returns the freed heap to the OS and resets the kernel's
// peak resident set mark (VmHWM) to the current resident set, so a
// later peakRSSMB covers only what ran after it: not the references,
// the warm-up or the restarts.
func resetPeakRSS() error {
	debug.FreeOSMemory()
	return os.WriteFile("/proc/self/clear_refs", []byte("5"), 0)
}

// peakRSSMB reads the process's peak resident set (VmHWM) in MiB.
func peakRSSMB() (float64, error) {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(data), "\n") {
		if v, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(v), " kB"), 64)
			return kb / 1024, err
		}
	}
	return 0, errors.New("no VmHWM in /proc/self/status")
}

// writeJSON writes v to <out>/<kind>-<workload>-seed<seed>-trace<t>.json.
func (b *bench) writeJSON(kind string, v any) error {
	t := 0
	if b.traced {
		t = 1
	}
	data, err := json.MarshalIndent(v, "", " ")
	if err != nil {
		return err
	}
	path := filepath.Join(b.out, fmt.Sprintf("%s-%s-seed%d-trace%d.json", kind, b.workload, b.seed, t))
	return os.WriteFile(path, data, 0o644)
}

// printResult prints every metric by name with its unit, then the
// environment, then the JSON result as the last line.
func printResult(f *os.File, b *bench, res *result) {
	names := make([]string, 0, len(res.Metrics))
	for n := range res.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(f, "%-36s %14.6g %s\n", n, res.Metrics[n].Value, res.Metrics[n].Unit)
	}
	env, _ := json.Marshal(b.env)
	fmt.Fprintf(f, "env %s\n", env)
	line, _ := json.Marshal(res)
	fmt.Fprintf(f, "%s\n", line)
}
