package leanconsensus

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"slices"
	"strconv"
	"strings"
	"time"

	"leanconsensus/internal/api"
	"leanconsensus/internal/engine"
	"leanconsensus/internal/obslog"
)

// This file is the typed Go client for the leanserve HTTP service
// (internal/server, cmd/leanserve). Every body it sends or decodes is
// declared once, in internal/api, and re-exported here under its public
// name.

// CorrelationHeader is the request header carrying a caller-chosen
// correlation ID on POST /v1/jobs and /v1/campaigns. The service stamps
// the value as the Parent of the admitted work's root journal events,
// so a coordinator fanning work out across processes can reconstruct
// the whole tree from the merged event streams.
const CorrelationHeader = api.CorrelationHeader

// TenantHeader is the request header naming the submitting tenant on
// POST /v1/jobs and /v1/campaigns. Tenanted submissions are admitted
// under the service's per-tenant fair-share gate: each tenant is
// guaranteed its share of the high-water mark even while another tenant
// saturates the queue, and the tenant label rides on the work's journal
// events and status bodies.
const TenantHeader = api.TenantHeader

// MaxTraceK is the largest per-shard capture budget SubmitJobsTraced
// may request.
const MaxTraceK = api.MaxTraceK

// Job lifecycle states reported by JobStatus.Status (and
// CampaignStatus.Status).
const (
	JobQueued  = api.StatusQueued
	JobRunning = api.StatusRunning
	JobDone    = api.StatusDone
	JobFailed  = api.StatusFailed
)

// JobSpec describes one batched consensus job: Instances independent
// lean-consensus instances of N processes each, run under the named
// execution model, noise distribution and adversarial schedule,
// deterministically from Seed. Zero values select server-side defaults;
// names resolve through the server's registries (see Client.Models and
// Client.Adversaries). Correlation and Tenant travel as request headers,
// never in the body.
type JobSpec = engine.JobSpec

// JobStatus is one job's lifecycle state, live progress, and — once
// finished — results.
type JobStatus = api.JobStatus

// SpecStatus is one spec's progress within a job.
type SpecStatus = api.SpecStatus

// SpecResult aggregates one executed spec. All fields except ElapsedMS
// and Throughput are pure functions of the spec and replay exactly.
type SpecResult = api.SpecResult

// Catalog lists what the service's registries accept in a JobSpec.
type Catalog = api.Catalog

// ModelInfo describes one registered execution model.
type ModelInfo = api.ModelInfo

// VariantInfo describes one registered algorithm variant.
type VariantInfo = api.VariantInfo

// AdversaryCatalog lists the service's registered adversarial schedules.
type AdversaryCatalog = api.AdversaryCatalog

// AdversaryInfo describes one registered adversarial schedule.
type AdversaryInfo = api.AdversaryInfo

// AdversaryParam is one named parameter of an adversarial schedule.
type AdversaryParam = api.AdversaryParam

// Health is the service's liveness report.
type Health = api.Health

// Event is one operations-journal entry.
type Event = api.Event

// EventLabels carries an event's workload axes (model × dist ×
// adversary × n, the paper's experiment coordinates) and kind-specific
// Count/Detail payload.
type EventLabels = obslog.Labels

// EventPage is one journal replay window.
type EventPage = api.EventPage

// EventQuery selects journal events for Client.QueryEvents. The zero
// value replays everything the service retains (up to the server's page
// limit). Kind/ID/Parent are equality filters; After/Before bound the
// event timestamp (half-open: After ≤ TS < Before); Limit caps the page
// (0 selects the server default of 4096, hard max 65536).
type EventQuery struct {
	Since  uint64
	Kind   string
	ID     string
	Parent string
	After  time.Time
	Before time.Time
	Limit  int
}

// encode renders the query string, always including since so the
// request selects the one-shot JSON query mode.
func (q *EventQuery) encode() string {
	v := url.Values{}
	v.Set("since", strconv.FormatUint(q.Since, 10))
	if q.Kind != "" {
		v.Set("kind", q.Kind)
	}
	if q.ID != "" {
		v.Set("id", q.ID)
	}
	if q.Parent != "" {
		v.Set("parent", q.Parent)
	}
	if !q.After.IsZero() {
		v.Set("after", q.After.Format(time.RFC3339Nano))
	}
	if !q.Before.IsZero() {
		v.Set("before", q.Before.Format(time.RFC3339Nano))
	}
	if q.Limit > 0 {
		v.Set("limit", strconv.Itoa(q.Limit))
	}
	return v.Encode()
}

// TraceEvent is one flight-recorder event.
type TraceEvent = api.TraceEvent

// TraceInstance is one captured execution.
type TraceInstance = api.TraceInstance

// JobTraces is the GET /v1/jobs/{id}/trace body.
type JobTraces = api.JobTraces

// SpecTrace is one spec's flight-recorder captures.
type SpecTrace = api.SpecTrace

// CampaignStatus is one campaign's lifecycle state, live progress, and —
// once finished — its deterministic report.
type CampaignStatus = api.CampaignStatus

// failure maps a failed terminal job or campaign status to an error.
func failure(st any) error {
	switch s := st.(type) {
	case *JobStatus:
		if s.Status == JobFailed {
			return fmt.Errorf("leanserve: job %s failed: %s", s.ID, s.Error)
		}
	case *CampaignStatus:
		if s.Status == JobFailed {
			return fmt.Errorf("leanserve: campaign %s failed: %s", s.ID, s.Error)
		}
	}
	return nil
}

// APIError is a non-2xx response from the service.
type APIError struct {
	StatusCode int
	Message    string
}

// Error implements error.
func (e *APIError) Error() string {
	return fmt.Sprintf("leanserve: HTTP %d: %s", e.StatusCode, e.Message)
}

// OverloadedError is a 429: the service shed the submission. Retry no
// sooner than RetryAfter.
type OverloadedError struct {
	RetryAfter time.Duration
	Message    string
}

// Error implements error.
func (e *OverloadedError) Error() string {
	return fmt.Sprintf("leanserve: overloaded (retry after %v): %s", e.RetryAfter, e.Message)
}

// Client is a typed client for a leanserve service. The zero value is
// not usable; construct with NewClient.
type Client struct {
	// BaseURL is the service root, e.g. "http://127.0.0.1:8080".
	BaseURL string
	// HTTPClient is the transport; nil selects http.DefaultClient.
	HTTPClient *http.Client
	// PollInterval is the polling cadence of WaitJob and WaitCampaign
	// (default 25ms).
	PollInterval time.Duration
}

// NewClient returns a client for the service rooted at baseURL.
func NewClient(baseURL string) *Client {
	return &Client{BaseURL: strings.TrimRight(baseURL, "/")}
}

// httpClient returns the effective transport.
func (c *Client) httpClient() *http.Client {
	if c.HTTPClient != nil {
		return c.HTTPClient
	}
	return http.DefaultClient
}

// do issues one request and decodes a 2xx JSON body — or one with a
// status listed in also — into out. Other responses become
// *OverloadedError (429) or *APIError.
func (c *Client) do(req *http.Request, out any, also ...int) error {
	resp, err := c.httpClient().Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if (resp.StatusCode < 200 || resp.StatusCode > 299) && !slices.Contains(also, resp.StatusCode) {
		return responseError(resp)
	}
	return json.NewDecoder(resp.Body).Decode(out)
}

// get fetches path and decodes its JSON body (see do for also).
func get[T any](ctx context.Context, c *Client, path string, also ...int) (*T, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.BaseURL+path, nil)
	if err != nil {
		return nil, err
	}
	var v T
	if err := c.do(req, &v, also...); err != nil {
		return nil, err
	}
	return &v, nil
}

// polled is what the wait loop needs of a job or campaign status.
type polled[S any] interface {
	*S
	Finished() bool
}

// wait polls path until the status it serves is terminal or ctx
// expires. A failed terminal status returns together with a non-nil
// error.
func wait[S any, P polled[S]](ctx context.Context, c *Client, path string) (*S, error) {
	interval := c.PollInterval
	if interval <= 0 {
		interval = 25 * time.Millisecond
	}
	for {
		st, err := get[S](ctx, c, path)
		if err != nil {
			return nil, err
		}
		if P(st).Finished() {
			return st, failure(st)
		}
		select {
		case <-ctx.Done():
			return st, ctx.Err()
		case <-time.After(interval):
		}
	}
}

// stream subscribes to the SSE progress stream at path, calling fn (when
// non-nil) for every progress snapshot, and returns the final status
// carried by the terminal "done" event — with a non-nil error when it is
// a failure. A stream that ends without "done" (the service handed the
// unfinished work to its successor) is an error.
func stream[S any](ctx context.Context, c *Client, path string, fn func(S)) (*S, error) {
	var final *S
	err := c.streamEvents(ctx, path, nil, func(event string, data []byte) (bool, error) {
		var st S
		if err := json.Unmarshal(data, &st); err != nil {
			return false, fmt.Errorf("leanserve: bad stream payload: %v", err)
		}
		if event == "done" {
			final = &st
			return true, nil
		}
		if fn != nil {
			fn(st)
		}
		return false, nil
	})
	if err != nil {
		return nil, err
	}
	return final, failure(final)
}

// responseError converts a non-2xx response into a typed error.
func responseError(resp *http.Response) error {
	var body api.ErrorBody
	msg := resp.Status
	if err := json.NewDecoder(io.LimitReader(resp.Body, 1<<16)).Decode(&body); err == nil && body.Error != "" {
		msg = body.Error
	}
	if resp.StatusCode == http.StatusTooManyRequests {
		retry := time.Second
		if secs, err := strconv.Atoi(resp.Header.Get("Retry-After")); err == nil && secs > 0 {
			retry = time.Duration(secs) * time.Second
		}
		return &OverloadedError{RetryAfter: retry, Message: msg}
	}
	return &APIError{StatusCode: resp.StatusCode, Message: msg}
}

// SubmitJobs submits one batch of job specs and returns the job ID. The
// batch is admitted or shed as a unit: on overload the typed
// *OverloadedError carries the service's Retry-After hint. The request
// body is byte-identical to SubmitJobsTraced with traceK 0.
func (c *Client) SubmitJobs(ctx context.Context, specs ...JobSpec) (string, error) {
	return c.SubmitJobsTraced(ctx, 0, specs...)
}

// SubmitJobsTraced submits one batch of job specs with flight-recorder
// tracing armed: the service captures the traceK most interesting
// instances per arena shard (violations first, then the deepest rounds)
// for each spec, retrievable with JobTrace once the job runs. traceK
// must be within [0, MaxTraceK]; 0 degrades to an untraced SubmitJobs.
func (c *Client) SubmitJobsTraced(ctx context.Context, traceK int, specs ...JobSpec) (string, error) {
	var corr, tenant string
	for _, spec := range specs {
		if corr == "" {
			corr = spec.Correlation
		}
		if tenant == "" {
			tenant = spec.Tenant
		}
	}
	return c.submit(ctx, "/v1/jobs", api.SubmitRequest{Jobs: specs, Trace: traceK}, corr, tenant)
}

// submit POSTs one JSON submission, with the correlation and tenant
// headers when non-empty, and returns the minted ID.
func (c *Client) submit(ctx context.Context, path string, v any, corr, tenant string) (string, error) {
	body, err := json.Marshal(v)
	if err != nil {
		return "", err
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, c.BaseURL+path, bytes.NewReader(body))
	if err != nil {
		return "", err
	}
	req.Header.Set("Content-Type", "application/json")
	if corr != "" {
		req.Header.Set(CorrelationHeader, corr)
	}
	if tenant != "" {
		req.Header.Set(TenantHeader, tenant)
	}
	var out api.Accepted
	if err := c.do(req, &out); err != nil {
		return "", err
	}
	return out.ID, nil
}

// JobTrace fetches one job's flight-recorder captures. It answers at any
// lifecycle stage; capture blocks appear as specs finish.
func (c *Client) JobTrace(ctx context.Context, id string) (*JobTraces, error) {
	return get[JobTraces](ctx, c, "/v1/jobs/"+id+"/trace")
}

// Job fetches one job's status.
func (c *Client) Job(ctx context.Context, id string) (*JobStatus, error) {
	return get[JobStatus](ctx, c, "/v1/jobs/"+id)
}

// WaitJob polls until the job finishes or ctx expires. A failed job
// returns its final status together with a non-nil error.
func (c *Client) WaitJob(ctx context.Context, id string) (*JobStatus, error) {
	return wait[JobStatus](ctx, c, "/v1/jobs/"+id)
}

// streamEvents subscribes to an SSE endpoint and calls each for every
// event payload; each returning true ends the stream as successfully
// terminal. Both StreamJob and StreamCampaign are this loop with a
// different payload type.
func (c *Client) streamEvents(ctx context.Context, path string, opened func(http.Header), each func(event string, data []byte) (bool, error)) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.BaseURL+path, nil)
	if err != nil {
		return err
	}
	req.Header.Set("Accept", "text/event-stream")
	resp, err := c.httpClient().Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return responseError(resp)
	}
	if opened != nil {
		opened(resp.Header)
	}

	var event string
	var data bytes.Buffer
	sc := bufio.NewScanner(resp.Body)
	// The terminal "done" event carries the whole final status on one
	// data line; for a maximal legal campaign (4096 cells, ~450 bytes of
	// JSON each) that is ~2 MB, so the line cap must sit well above it.
	sc.Buffer(make([]byte, 0, 64*1024), 16<<20)
	for sc.Scan() {
		line := sc.Text()
		switch {
		case strings.HasPrefix(line, "event: "):
			event = strings.TrimPrefix(line, "event: ")
		case strings.HasPrefix(line, "data: "):
			data.WriteString(strings.TrimPrefix(line, "data: "))
		case line == "":
			if data.Len() == 0 {
				continue
			}
			done, err := each(event, data.Bytes())
			if err != nil {
				return err
			}
			if done {
				return nil
			}
			data.Reset()
		}
	}
	if err := sc.Err(); err != nil {
		return err
	}
	return fmt.Errorf("leanserve: stream ended without a done event")
}

// StreamJob subscribes to the job's SSE progress stream, calling fn
// (when non-nil) for every progress snapshot, and returns the final
// status carried by the terminal "done" event. A failed job returns its
// status together with a non-nil error, exactly like WaitJob.
func (c *Client) StreamJob(ctx context.Context, id string, fn func(JobStatus)) (*JobStatus, error) {
	return stream[JobStatus](ctx, c, "/v1/jobs/"+id+"/stream", fn)
}

// SubmitCampaign submits one campaign spec and returns the campaign ID.
// The whole grid is admitted or shed as a unit: on overload the typed
// *OverloadedError carries the service's Retry-After hint, and an
// oversized grid comes back as a 400 *APIError before anything runs.
func (c *Client) SubmitCampaign(ctx context.Context, spec CampaignSpec) (string, error) {
	return c.submit(ctx, "/v1/campaigns", spec, spec.Correlation, spec.Tenant)
}

// Campaign fetches one campaign's status (and, once finished, report).
func (c *Client) Campaign(ctx context.Context, id string) (*CampaignStatus, error) {
	return get[CampaignStatus](ctx, c, "/v1/campaigns/"+id)
}

// WaitCampaign polls until the campaign finishes or ctx expires. A
// failed campaign returns its final status together with a non-nil
// error.
func (c *Client) WaitCampaign(ctx context.Context, id string) (*CampaignStatus, error) {
	return wait[CampaignStatus](ctx, c, "/v1/campaigns/"+id)
}

// StreamCampaign subscribes to the campaign's SSE progress stream,
// calling fn (when non-nil) for every cell-progress snapshot, and
// returns the final status carried by the terminal "done" event.
func (c *Client) StreamCampaign(ctx context.Context, id string, fn func(CampaignStatus)) (*CampaignStatus, error) {
	return stream[CampaignStatus](ctx, c, "/v1/campaigns/"+id+"/stream", fn)
}

// Models fetches the service's registry catalog.
func (c *Client) Models(ctx context.Context) (*Catalog, error) {
	return get[Catalog](ctx, c, "/v1/models")
}

// Adversaries fetches the service's adversary registry catalog.
func (c *Client) Adversaries(ctx context.Context) (*AdversaryCatalog, error) {
	return get[AdversaryCatalog](ctx, c, "/v1/adversaries")
}

// Health fetches the liveness report. Both "ok" (200) and "draining"
// (503) parse without error; inspect Health.Status.
func (c *Client) Health(ctx context.Context) (*Health, error) {
	return get[Health](ctx, c, "/healthz", http.StatusServiceUnavailable)
}

// Events replays the service's operations journal from position since
// (0 replays the whole retained window — the on-disk history too, when
// the service runs with a journal directory). Pollers loop on the
// returned Next: page, err := c.Events(ctx, page.Next). Retention is
// finite, so a poller that falls behind sees a sequence gap rather than
// the discarded events; it is Events(ctx, since) with an empty query.
func (c *Client) Events(ctx context.Context, since uint64) (*EventPage, error) {
	return c.QueryEvents(ctx, EventQuery{Since: since})
}

// QueryEvents evaluates one event query against the service's journal —
// the on-disk store first (history beyond the in-memory ring, when the
// service is durable), then the ring — and returns the matching page in
// sequence order. Loop on Next to page through a large result; when the
// page came back full, Next is the last returned seq, else the journal
// tip.
func (c *Client) QueryEvents(ctx context.Context, q EventQuery) (*EventPage, error) {
	return get[EventPage](ctx, c, "/v1/events?"+q.encode())
}

// StreamEvents subscribes to the journal firehose (SSE), calling fn for
// every event from the moment of subscription until ctx is cancelled,
// which is the normal way to end the stream (the returned error is then
// ctx's error).
//
// The stream survives disconnects: on a transport failure the client
// reconnects with capped exponential backoff (250ms doubling to 5s),
// resuming via ?since= from the last seen sequence number — or, if the
// stream dropped before its first event, from the position the service
// announced when it opened — so nothing the service still retains is
// missed, and deduplicating any overlap.
// What retention has discarded in the meantime surfaces as a Seq gap,
// exactly like a slow reader's ring wrap — the server never buffers for
// a disconnected consumer. An HTTP-level rejection (*APIError) is
// returned immediately: a service that answers 4xx/5xx is reachable and
// saying no, so retrying cannot help.
func (c *Client) StreamEvents(ctx context.Context, fn func(Event)) error {
	var last uint64
	// seen gates resumption: a stream resumes from the last event it
	// delivered, or, before its first event, from the position the
	// service announced when the stream opened. Only a service that
	// announces nothing leaves a first stream to reconnect "from now".
	seen := false
	opened := func(h http.Header) {
		if seen {
			return
		}
		if pos, err := strconv.ParseUint(h.Get(api.JournalSeqHeader), 10, 64); err == nil {
			last, seen = pos, true
		}
	}
	backoff := 250 * time.Millisecond
	for {
		path := "/v1/events"
		if seen {
			path += "?since=" + strconv.FormatUint(last, 10)
		}
		err := c.streamEvents(ctx, path, opened, func(event string, data []byte) (bool, error) {
			var e Event
			if err := json.Unmarshal(data, &e); err != nil {
				return false, err
			}
			if seen && e.Seq <= last {
				return false, nil // replayed overlap after a reconnect
			}
			last, seen = e.Seq, true
			backoff = 250 * time.Millisecond
			fn(e)
			return false, nil
		})
		if ctx.Err() != nil {
			return ctx.Err()
		}
		var apiErr *APIError
		if errors.As(err, &apiErr) {
			return err
		}
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-time.After(backoff):
		}
		if backoff *= 2; backoff > 5*time.Second {
			backoff = 5 * time.Second
		}
	}
}

// Metrics fetches the Prometheus text exposition.
func (c *Client) Metrics(ctx context.Context) (string, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.BaseURL+"/metrics", nil)
	if err != nil {
		return "", err
	}
	resp, err := c.httpClient().Do(req)
	if err != nil {
		return "", err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return "", responseError(resp)
	}
	b, err := io.ReadAll(resp.Body)
	return string(b), err
}
