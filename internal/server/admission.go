package server

import (
	"fmt"
	"net/http"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"leanconsensus/internal/api"
	"leanconsensus/internal/metrics"
)

// maxTenantLen bounds the accepted tenant name; like correlation IDs,
// anything longer (or containing control characters) is a 400, not a
// silent trim.
const maxTenantLen = 64

// DefaultTenantShare is each tenant's guaranteed fraction of the
// high-water mark when Config.TenantShare is unset.
const DefaultTenantShare = 0.5

// DefaultMaxTenants bounds the named tenant buckets when
// Config.MaxTenants is unset. The header is unauthenticated free-form
// input, so the bucket set (and its per-tenant gauges) must stay
// bounded no matter what names arrive; past the cap, new names fold
// into the unnamed default bucket.
const DefaultMaxTenants = 64

// tenantFrom extracts and validates the X-Lean-Tenant header: empty
// when absent, a 400-worthy error when malformed. The tenant buckets a
// submission's admission accounting: every reservation made under it
// counts against that tenant's share of the high-water mark, the label
// rides the work's journal events and status bodies, and
// leanconsensus_tenant_queued_instances{tenant=...} shows who owns the
// backlog. An absent header means the unnamed default bucket, which
// behaves exactly like the pre-tenant admission gate.
func tenantFrom(r *http.Request) (string, error) {
	v := strings.TrimSpace(r.Header.Get(api.TenantHeader))
	if v == "" {
		return "", nil
	}
	if len(v) > maxTenantLen {
		return "", fmt.Errorf("server: %s longer than %d bytes", api.TenantHeader, maxTenantLen)
	}
	for _, c := range v {
		if c < 0x20 || c == 0x7f {
			return "", fmt.Errorf("server: %s contains control characters", api.TenantHeader)
		}
	}
	return v, nil
}

// tenant is one admission bucket: the instances it has queued. Returns
// are lock-free atomic decrements (they happen on completion paths);
// only the admission decision itself serializes, under admitMu.
type tenant struct {
	name   string
	queued atomic.Int64
}

// tenantFor returns the named bucket, creating it — and, for named
// tenants, registering its backlog gauge — on first use. The named set
// is capped at Config.MaxTenants: past the cap a new name folds into
// the unnamed default bucket, so attacker-minted names cannot grow the
// map or the /metrics cardinality without bound. Only admitted work
// reaches this function (reserve peeks without creating), so rejected
// requests allocate nothing.
func (s *Server) tenantFor(name string) *tenant {
	s.tenantMu.Lock()
	defer s.tenantMu.Unlock()
	t := s.tenants[name]
	if t == nil && name != "" && s.namedTenants >= s.cfg.MaxTenants {
		name = ""
		t = s.tenants[name]
	}
	if t == nil {
		t = &tenant{name: name}
		s.tenants[name] = t
		if name != "" {
			s.namedTenants++
			s.reg.GaugeFunc("leanconsensus_tenant_queued_instances"+metrics.Labels("tenant", name),
				"instances admitted under this tenant but not yet finished", t.queued.Load)
		}
	}
	return t
}

// peekTenant returns the bucket a submission under name would count
// against, without creating anything: nil when the name is unseen and
// the cap still has room (a fresh bucket would start empty), the
// default bucket when the named set is already at its cap (overflow
// names share the default bucket's accounting, so they cannot claim an
// empty-bucket guarantee the bucket they'd land in doesn't have).
func (s *Server) peekTenant(name string) *tenant {
	s.tenantMu.Lock()
	defer s.tenantMu.Unlock()
	if t := s.tenants[name]; t != nil {
		return t
	}
	if name != "" && s.namedTenants >= s.cfg.MaxTenants {
		return s.tenants[""]
	}
	return nil
}

// reserve is the admission gate shared by jobs and campaigns: shed
// rather than buffer. A submission under the named tenant is admitted
// when any of these holds, checked in order:
//
//  1. The global queue is empty — one legal batch is never
//     unschedulable.
//  2. The tenant has nothing queued, and the reservation fits under
//     HighWater + share — the per-tenant mirror of rule 1, which is
//     what guarantees a tenant its first batch even while another
//     tenant has filled the global mark (fair admission's whole
//     point).
//  3. The reservation fits the tenant's guaranteed share,
//     TenantShare × HighWater, and fits under HighWater + share —
//     admitted even when spillover from other tenants has pushed the
//     global queue to the mark.
//  4. The reservation fits under the global high-water mark — unused
//     share is anyone's headroom (spillover).
//
// With all traffic in one bucket rules 2–3 collapse into 1 and 4, so an
// untenanted service admits exactly as it always has. Rules 2–3 carry
// the HighWater + share bound because the tenant header is
// unauthenticated: without it, a client minting a fresh name per
// request would ride rule 2 past any backlog (every new bucket is
// empty), defeating the shed gate entirely. With it, the global
// backlog is hard-bounded by HighWater plus one guaranteed share, no
// matter how many names arrive — while a genuinely new tenant still
// gets its first batch past a queue another tenant saturated.
//
// The tenant bucket is looked up, not created: only an admitted
// reservation allocates one (tenantFor), so rejected requests leave no
// bucket and no gauge behind. The decision runs under admitMu so the
// two counters are read consistently; returns stay lock-free atomic
// decrements. On rejection it reports the observed backlog for the
// Retry-After hint.
func (s *Server) reserve(name string, total int64) (tb *tenant, observed int64, ok bool) {
	s.admitMu.Lock()
	defer s.admitMu.Unlock()
	cur := s.queued.Load()
	tb = s.peekTenant(name)
	var tq int64
	if tb != nil {
		tq = tb.queued.Load()
	}
	share := int64(float64(s.cfg.HighWater) * s.cfg.TenantShare)
	switch {
	case cur <= 0:
	case tq <= 0 && cur+total <= s.cfg.HighWater+share:
	case tq+total <= share && cur+total <= s.cfg.HighWater+share:
	case cur+total <= s.cfg.HighWater:
	default:
		return nil, cur, false
	}
	if tb == nil {
		tb = s.tenantFor(name)
	}
	s.queued.Add(total)
	tb.queued.Add(total)
	return tb, cur + total, true
}

// release returns n reserved instances to the gate without counting
// them as throughput — the path for work that was admitted but never
// ran (decode-after-reserve failures, closed-while-reserving, arena
// construction errors, drain handoffs). Every release must mirror the
// reserve it undoes on both counters, or admission tightens forever.
func (s *Server) release(tb *tenant, n int64) {
	s.queued.Add(-n)
	if tb != nil {
		tb.queued.Add(-n)
	}
}

// complete returns n finished instances to the gate and feeds the
// completion-rate estimate behind the Retry-After hint.
func (s *Server) complete(tb *tenant, n int64) {
	s.release(tb, n)
	s.completed.Add(n)
}

// The Retry-After hint derives from a measured EWMA of the actual
// completion rate, sampled lazily on the rejection path. initialRate
// seeds the estimate before the first measurement (the PR 1 load-test
// figure; the batched path measured ~333k/s in PR 7, and hardware
// varies, which is exactly why the hint now tracks the observed rate
// instead of hardcoding either number). The floor and cap keep a
// cold or absurd sample from producing a useless hint.
const (
	initialRate = 50_000
	rateFloor   = 5_000
	rateCap     = 50_000_000
	rateAlpha   = 0.3 // EWMA weight of the newest sample
	rateWindow  = 100 * time.Millisecond
)

// rateEWMA estimates instance completions per second from the
// monotonic completed counter. Samples shorter than rateWindow reuse
// the previous estimate, so a burst of rejections cannot turn counter
// noise into rate noise.
type rateEWMA struct {
	mu       sync.Mutex
	now      func() time.Time // injectable for tests
	last     time.Time
	lastDone int64
	rate     float64
}

// observe folds the counter into the estimate and returns it.
func (e *rateEWMA) observe(done int64) float64 {
	e.mu.Lock()
	defer e.mu.Unlock()
	now := e.now()
	if e.last.IsZero() {
		e.last, e.lastDone = now, done
		return e.rate
	}
	dt := now.Sub(e.last)
	if dt < rateWindow {
		return e.rate
	}
	sample := float64(done-e.lastDone) / dt.Seconds()
	e.rate = rateAlpha*sample + (1-rateAlpha)*e.rate
	e.last, e.lastDone = now, done
	return e.rate
}

// retryAfter estimates seconds until the backlog clears at the
// observed completion rate; clients treat it as a hint.
func (s *Server) retryAfter(queued int64) int64 {
	rate := s.rate.observe(s.completed.Load())
	if rate < rateFloor {
		rate = rateFloor
	}
	if rate > rateCap {
		rate = rateCap
	}
	secs := queued/int64(rate) + 1
	if secs > 60 {
		secs = 60
	}
	return secs
}

// evictFinished trims table to at most max entries, evicting finished
// entries in roughly creation order; live entries are never evicted.
// It returns the updated order slice.
//
// skip persists across calls: entries before it were live on the last
// scan, so the common case — a long prefix of long-running work ahead
// of freshly finished entries — costs one scan from the frontier
// instead of an O(n²) restart from the front. When a scan from the
// frontier finds nothing evictable, the prefix is rescanned once
// (entries skipped earlier may have finished since); only then does
// the table run long.
func evictFinished[T interface{ finished() bool }](table map[string]T, order []string, max int, skip *int, onEvict func(id string)) []string {
	for len(table) > max {
		if *skip > len(order) {
			*skip = 0
		}
		found := -1
		for i := *skip; i < len(order); i++ {
			if e, ok := table[order[i]]; ok && e.finished() {
				found = i
				break
			}
		}
		if found < 0 {
			if *skip == 0 {
				return order // everything live; let the table run long
			}
			*skip = 0
			continue
		}
		id := order[found]
		delete(table, id)
		order = append(order[:found], order[found+1:]...)
		*skip = found
		if onEvict != nil {
			onEvict(id)
		}
	}
	return order
}
