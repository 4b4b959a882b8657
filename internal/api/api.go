// Package api is the leanserve wire vocabulary, declared once: every
// request, response and stream body, status name and header of the
// HTTP service. internal/server encodes these types and the root
// package's Client decodes them; the root package re-exports each one
// as a type alias (JobStatus = api.JobStatus), so the public names stay
// where they always were and there is nothing to keep in step.
//
// Specs and reports belong to the layers that own them: a job spec is
// engine.JobSpec, a campaign spec and report are campaign.Spec and
// campaign.Report, event labels are obslog.Labels. The bodies here
// embed them as they are.
//
// Three shapes are deliberate copies: Event, TraceEvent and
// TraceInstance mirror obslog.Event, trace.Event and trace.Instance
// field for field, but carry Kind as a plain string. The owners' Kind
// types reject names they do not know when decoding, so a client
// decoding into them would fail a whole page the moment a newer server
// adds an event kind. The server keeps encoding the owners' types; a
// round-trip test holds the copies to their bytes.
package api

import (
	"time"

	"leanconsensus/internal/campaign"
	"leanconsensus/internal/engine"
	"leanconsensus/internal/obslog"
	"leanconsensus/internal/trace"
)

// Request headers on POST /v1/jobs and /v1/campaigns, and the firehose
// response header.
const (
	// CorrelationHeader carries a caller-chosen correlation ID. The
	// service stamps it as the Parent of the admitted work's root journal
	// events, so a coordinator fanning work out across processes can
	// rebuild the whole tree from the merged event streams.
	CorrelationHeader = "X-Lean-Correlation"
	// TenantHeader names the submitting tenant. Tenanted submissions are
	// admitted under the per-tenant fair-share gate, and the tenant label
	// rides on the work's journal events and status bodies.
	TenantHeader = "X-Lean-Tenant"
	// JournalSeqHeader announces, on the /v1/events SSE response, the
	// journal position the stream starts after; a client whose stream
	// drops before its first event resumes from it with ?since=.
	JournalSeqHeader = "X-Lean-Journal-Seq"
)

// Lifecycle states of a job or campaign status body.
const (
	StatusQueued  = "queued"
	StatusRunning = "running"
	StatusDone    = "done"
	StatusFailed  = "failed"
)

// MaxTraceK caps the per-shard capture budget a submission may request;
// every capture's event ring is held in memory until the job is evicted,
// so the cap bounds the service's exposure.
const MaxTraceK = 64

// SubmitRequest is the POST /v1/jobs body. Trace, when positive, arms
// flight-recorder capture on every spec: the Trace most interesting
// instances per shard (violations first, then the deepest rounds)
// become retrievable at GET /v1/jobs/{id}/trace once the spec finishes.
type SubmitRequest struct {
	Jobs  []engine.JobSpec `json:"jobs"`
	Trace int              `json:"trace,omitempty"`
}

// Accepted is the 202 body of an admitted job batch or campaign.
type Accepted struct {
	ID              string `json:"id"`
	Status          string `json:"status"`
	Location        string `json:"location"`
	QueuedInstances int64  `json:"queuedInstances"`
}

// ErrorBody is the JSON envelope of every non-2xx response.
type ErrorBody struct {
	Error string `json:"error"`
}

// JobStatus is one job's lifecycle state, live progress and, once
// finished, results: the GET /v1/jobs/{id} body and the job SSE payload.
type JobStatus struct {
	ID      string       `json:"id"`
	Status  string       `json:"status"`
	Created time.Time    `json:"created"`
	Tenant  string       `json:"tenant,omitempty"`
	Specs   []SpecStatus `json:"specs"`
	Error   string       `json:"error,omitempty"`
}

// Finished reports whether the job reached a terminal state.
func (s *JobStatus) Finished() bool { return s.Status == StatusDone || s.Status == StatusFailed }

// SpecStatus is one spec's progress within a job: Done of Instances
// completed, broken down per arena shard, plus the final Result once the
// spec has run.
type SpecStatus struct {
	Spec      engine.JobSpec `json:"spec"`
	Instances int            `json:"instances"`
	Done      int64          `json:"done"`
	PerShard  []int64        `json:"perShard"`
	Result    *SpecResult    `json:"result,omitempty"`
}

// SpecResult aggregates one executed spec. Every field except the
// wall-clock ones (ElapsedMS, Throughput) is a pure function of the
// spec: byte-identical across replays, and equal to what cmd/leanarena
// reports for the same shape, since the service derives the workload
// from the same seed streams.
type SpecResult struct {
	Model          string  `json:"model"`
	Variant        string  `json:"variant"`
	Dist           string  `json:"dist"`
	Adversary      string  `json:"adversary"`
	N              int     `json:"n"`
	Seed           uint64  `json:"seed"`
	Instances      int     `json:"instances"`
	Decided0       int64   `json:"decided0"`
	Decided1       int64   `json:"decided1"`
	Errors         int64   `json:"errors"`
	Ops            int64   `json:"ops"`
	RoundSum       int64   `json:"roundSum"`
	MeanFirstRound float64 `json:"meanFirstRound"`
	MaxRound       int     `json:"maxRound"`
	ElapsedMS      float64 `json:"elapsedMs"`
	Throughput     float64 `json:"throughput"`
}

// CampaignStatus is one campaign's lifecycle state, live progress and,
// once finished, its deterministic report: the GET /v1/campaigns/{id}
// body and the campaign SSE payload. Two services running the same spec
// serve byte-identical reports.
type CampaignStatus struct {
	ID       string    `json:"id"`
	Status   string    `json:"status"`
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

// Finished reports whether the campaign reached a terminal state.
func (s *CampaignStatus) Finished() bool { return s.Status == StatusDone || s.Status == StatusFailed }

// Catalog is the GET /v1/models body: what the service's registries
// accept in a job spec.
type Catalog struct {
	DefaultModel string        `json:"defaultModel"`
	Models       []ModelInfo   `json:"models"`
	Variants     []VariantInfo `json:"variants"`
	Dists        []string      `json:"dists"`
}

// ModelInfo describes one registered execution model.
type ModelInfo struct {
	Name  string `json:"name"`
	Brief string `json:"brief"`
}

// VariantInfo describes one registered algorithm variant; only servable
// variants are accepted in job specs.
type VariantInfo struct {
	Name     string `json:"name"`
	Servable bool   `json:"servable"`
}

// AdversaryCatalog is the GET /v1/adversaries body: the registered
// adversarial schedules.
type AdversaryCatalog struct {
	DefaultAdversary string          `json:"defaultAdversary"`
	Adversaries      []AdversaryInfo `json:"adversaries"`
}

// AdversaryInfo describes one registered adversarial schedule: its
// parameter schema (specs are written "name:param=value:param=value")
// and the execution models that can run it.
type AdversaryInfo struct {
	Name      string           `json:"name"`
	Canonical string           `json:"canonical"`
	Brief     string           `json:"brief"`
	Params    []AdversaryParam `json:"params,omitempty"`
	Models    []string         `json:"models"`
}

// AdversaryParam is one named parameter of an adversarial schedule;
// Integer parameters only accept whole values.
type AdversaryParam struct {
	Name    string  `json:"name"`
	Default float64 `json:"default"`
	Integer bool    `json:"integer,omitempty"`
}

// Health is the GET /healthz body: "ok" with a 200 while serving,
// "draining" with a 503 once closing. Version and Revision identify the
// running build. Jobs and Campaigns count live (queued or running) work
// only; QueueDepth counts the part of it still waiting for an execution
// slot. Tenants counts tenants with queued work at the admission gate.
// Goroutines and GCPauseP99Ms are process-level runtime vitals. Node is
// the journal node identity stamped on the service's events, and
// JournalDropped counts events its persistence follower lost to ring
// wraps: nonzero means the durable journal has sequence gaps.
type Health struct {
	Status          string  `json:"status"`
	Version         string  `json:"version"`
	Revision        string  `json:"revision"`
	Node            string  `json:"node,omitempty"`
	QueuedInstances int64   `json:"queuedInstances"`
	Jobs            int     `json:"jobs"`
	Campaigns       int     `json:"campaigns"`
	QueueDepth      int     `json:"queueDepth"`
	Tenants         int     `json:"tenants,omitempty"`
	Goroutines      int     `json:"goroutines"`
	GCPauseP99Ms    float64 `json:"gcPauseP99Ms"`
	JournalDropped  uint64  `json:"journalDropped,omitempty"`
}

// JobTraces is the GET /v1/jobs/{id}/trace body: one capture block per
// spec in submission order, most interesting captures first within each
// block. A block is empty until its spec finishes, and stays empty when
// the job was submitted without tracing.
type JobTraces struct {
	ID     string      `json:"id"`
	Status string      `json:"status"`
	Specs  []SpecTrace `json:"specs"`
}

// SpecTrace is one spec's flight-recorder captures.
type SpecTrace struct {
	Spec  engine.JobSpec  `json:"spec"`
	Trace []TraceInstance `json:"trace,omitempty"`
}

// TraceEvent is one flight-recorder event: trace.Event with a string
// Kind. Which fields are meaningful depends on Kind: "start" carries
// the adversary's start delay in Delay, "op" the step delay and the
// value read or written, "round" the new round with the leader in Value
// (-1 when the model has no global view), "decide" the decided bit,
// "halt" a process death, and "preempt" the incoming process in Value.
type TraceEvent struct {
	Time  float64 `json:"t"`
	Delay float64 `json:"d"`
	Step  int64   `json:"j"`
	Proc  int32   `json:"p"`
	Round int32   `json:"r"`
	Value int32   `json:"v"`
	Kind  string  `json:"k"`
}

// TraceInstance is one captured execution, trace.Instance with string
// event kinds: identifying fields, the deterministic outcome summary,
// and the recorded event window (oldest first). Re-running the same
// (model, key, n, seed, config) replays the exact same events.
type TraceInstance struct {
	Key        string       `json:"key"`
	Model      string       `json:"model"`
	N          int          `json:"n"`
	Seed       uint64       `json:"seed"`
	Err        string       `json:"err,omitempty"`
	FirstRound int          `json:"first_round"`
	LastRound  int          `json:"last_round"`
	Ops        int64        `json:"ops"`
	SimTime    float64      `json:"sim_time"`
	Dropped    int64        `json:"dropped"`
	Events     []TraceEvent `json:"events"`
}

// Traces converts flight-recorder captures to their wire form (nil for
// nil).
func Traces(captures []trace.Instance) []TraceInstance {
	if captures == nil {
		return nil
	}
	out := make([]TraceInstance, len(captures))
	for i, inst := range captures {
		events := make([]TraceEvent, len(inst.Events))
		for j, ev := range inst.Events {
			events[j] = TraceEvent{
				Time: ev.Time, Delay: ev.Delay, Step: ev.Step,
				Proc: ev.Proc, Round: ev.Round, Value: ev.Value,
				Kind: ev.Kind.String(),
			}
		}
		out[i] = TraceInstance{
			Key: inst.Key, Model: inst.Model, N: inst.N, Seed: inst.Seed,
			Err: inst.Err, FirstRound: inst.FirstRound, LastRound: inst.LastRound,
			Ops: inst.Ops, SimTime: inst.SimTime, Dropped: inst.Dropped,
			Events: events,
		}
	}
	return out
}

// Event is one operations-journal entry, obslog.Event with a string
// Kind. Kind is a wire-stable name: job.admit, job.start, job.done,
// job.shed, campaign.start, campaign.cell.done, campaign.checkpoint,
// campaign.resume, campaign.done, arena.drain, server.request or
// journal.truncate. ID is the correlation ID of the entity the event is
// about (job or campaign ID, cell key); Parent chains it to its owner
// (a campaign's cells carry the campaign ID there), so a campaign's
// whole lifecycle tree rebuilds from the event stream alone.
type Event struct {
	Seq    uint64        `json:"seq"`
	TS     int64         `json:"ts"` // Unix nanoseconds
	Kind   string        `json:"kind"`
	ID     string        `json:"id,omitempty"`
	Parent string        `json:"parent,omitempty"`
	Node   string        `json:"node,omitempty"` // emitting process's identity
	Labels obslog.Labels `json:"labels"`
}

// EventPage is one GET /v1/events?since= window: events with Seq past
// the requested position, oldest first, and the position to poll from
// next. A gap between the requested position and Events[0].Seq means
// the service's ring wrapped (or its retention trimmed) past this
// reader. First is the oldest sequence number the service can still
// serve, from its on-disk store when the journal is durable, else its
// ring.
type EventPage struct {
	Events []Event `json:"events"`
	Next   uint64  `json:"next"`
	First  uint64  `json:"first,omitempty"`
}
