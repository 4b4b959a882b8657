package server

import (
	"encoding/json"
	"io"
	"sync"
	"sync/atomic"
	"time"

	"leanconsensus/internal/campaign"
	"leanconsensus/internal/obslog"
)

// CampaignStatus is the GET /v1/campaigns/{id} body and the campaign SSE
// event payload. Report appears once the campaign is done; everything in
// it is deterministic, so two services running the same spec serve
// byte-identical reports.
type CampaignStatus struct {
	ID       string    `json:"id"`
	Status   string    `json:"status"` // queued | running | done | failed
	Created  time.Time `json:"created"`
	Name     string    `json:"name,omitempty"`
	Tenant   string    `json:"tenant,omitempty"`
	SpecHash string    `json:"specHash"`

	CellsDone      int   `json:"cellsDone"`
	CellsTotal     int   `json:"cellsTotal"`
	InstancesDone  int64 `json:"instancesDone"`
	InstancesTotal int64 `json:"instancesTotal"`

	Error  string           `json:"error,omitempty"`
	Report *campaign.Report `json:"report,omitempty"`
}

// campaignRun is one admitted campaign's execution state. Progress
// fields are atomics written by the runner's serial callbacks and read
// by status snapshots and the SSE stream without locks.
type campaignRun struct {
	admitted
	camp *campaign.Campaign // nil for a restored terminal record

	cellsDone     atomic.Int64
	instancesDone atomic.Int64

	repMu  sync.Mutex
	report *campaign.Report
}

// campaignKind describes campaigns to the shared lifecycle. A campaign
// journals campaign.start at admission and no separate start event.
var campaignKind = kind{
	noun: "campaign", prefix: "c", dir: "campaigns", what: "campaigns",
	admitEvent: obslog.KindCampaignStart, doneEvent: obslog.KindCampaignDone,
	decode:    decodeCampaign,
	blank:     func() work { return &campaignRun{} },
	bodyField: func(r *record) *json.RawMessage { return &r.Spec },
}

// decodeCampaign decodes and fully resolves a campaign spec, including
// its typed grid-limit rejections.
func decodeCampaign(_ *Server, r io.Reader, _ int) (work, error) {
	camp, err := campaign.DecodeSpec(r)
	if err != nil {
		return nil, err
	}
	return &campaignRun{camp: camp}, nil
}

func (cr *campaignRun) instances() int64 { return cr.camp.Instances }

// payload is the normalized spec: it re-resolves at boot to the same
// cells and the same spec hash, which is what ties the record to its
// checkpoint manifest.
func (cr *campaignRun) payload() json.RawMessage {
	b, _ := json.Marshal(cr.camp.Spec) // a Spec of scalars and slices cannot fail to marshal
	return b
}

func (cr *campaignRun) admitLabels() obslog.Labels {
	return obslog.Labels{Detail: cr.camp.Spec.Name}
}

// snapshot assembles the wire status from the live counters.
func (cr *campaignRun) snapshot() any {
	st := CampaignStatus{
		ID:             cr.id,
		Status:         cr.statusName(),
		Created:        cr.created,
		Name:           cr.camp.Spec.Name,
		Tenant:         cr.tenant,
		SpecHash:       cr.camp.Hash,
		CellsDone:      int(cr.cellsDone.Load()),
		CellsTotal:     len(cr.camp.Cells),
		InstancesDone:  cr.instancesDone.Load(),
		InstancesTotal: cr.camp.Instances,
		Error:          cr.errText(),
	}
	cr.repMu.Lock()
	st.Report = cr.report
	cr.repMu.Unlock()
	return st
}

// execute runs the campaign. Each completed cell returns its
// repetitions to the admission gate in one delta, and whatever an
// aborted campaign never ran is returned in one piece at the end.
// Accounting is deliberately cell-grained — a per-instance hook would
// force the runner onto the streamed path, and admission only ever
// compares the queued gauge against the high-water mark, so cell-sized
// returns cost nothing but a little granularity.
func (cr *campaignRun) execute(s *Server) error {
	cfg := campaign.Config{
		Shards:      s.cfg.Shards,
		Workers:     s.cfg.Workers,
		Metrics:     s.campMetrics,
		AxisMetrics: s.campAxes,
		Journal:     s.journal,
		Correlation: cr.id,
	}
	if s.state != nil {
		// With durable state armed, every campaign checkpoints under its
		// server ID: completed cells survive a crash or a
		// checkpoint-and-stop drain, and the resumed run's report is
		// byte-identical to an uninterrupted one.
		// Resume is always on — a fresh ID has no manifest (an empty
		// checkpoint), a restarted one continues where its predecessor
		// stopped.
		cfg.Checkpoint = s.state.checkpointPath(cr.id)
		cfg.Resume = true
	}
	returned := int64(0)
	cfg.OnCell = func(p campaign.Progress) {
		// Serial with respect to itself (the runner delivers cell
		// completions on one goroutine), concurrent with admission
		// decisions.
		delta := p.InstancesDone - returned
		s.release(cr.tb, delta)
		if p.CellKey != "" {
			// Fresh cells feed the completion-rate EWMA; the initial
			// restored-checkpoint notification is bookkeeping, not
			// throughput.
			s.completed.Add(delta)
		}
		returned = p.InstancesDone
		cr.cellsDone.Store(int64(p.CellsDone))
		cr.instancesDone.Store(p.InstancesDone)
	}
	rep, err := cr.camp.Run(s.stopCtx, cfg)
	s.release(cr.tb, cr.camp.Instances-returned)
	if err == nil {
		cr.repMu.Lock()
		cr.report = rep
		cr.repMu.Unlock()
	}
	return err
}
