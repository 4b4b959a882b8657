package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"time"
)

// The durable service-state layer. With Config.StateDir set, the server
// persists every admitted job and campaign as a small JSON record —
// written with the same atomic temp-file+fsync+rename dance as campaign
// checkpoints — and replays the directory at boot:
//
//   - ID sequences continue across restarts (seqs.json, like journal
//     seqs), so a restarted process never re-mints a client's ID.
//   - Terminal records are served again at GET /v1/jobs/{id} and
//     GET /v1/campaigns/{id}, verbatim from the stored final snapshot.
//   - Records still in "admitted" state are work the previous process
//     never finished: jobs re-run from their stored submit body (results
//     are a pure function of the spec, so the rerun serves the same
//     bytes), and campaigns resume from their per-ID checkpoint manifest
//     under the state dir — the report after drain→restart→resume is
//     byte-identical to an uninterrupted run.
//
// The record files are the source of truth for work; the journal is the
// source of truth for history. Boot loads state first, then arms the
// journal store, so the resumed work's lifecycle events land after the
// replayed history they continue.

// stateVersion guards the record schema.
const stateVersion = 1

// Record lifecycle values. A record is written as "admitted" at
// admission, rewritten as "done"/"failed" with the final snapshot at
// completion, and deleted when its entry is evicted from the in-memory
// table. A crash between admission and completion leaves "admitted" —
// exactly the marker boot uses to find interrupted work.
const (
	recAdmitted = "admitted"
	recDone     = "done"
	recFailed   = "failed"
)

// record is the on-disk form of one admitted job batch or campaign.
type record struct {
	Version int       `json:"version"`
	ID      string    `json:"id"`
	Created time.Time `json:"created"`
	Corr    string    `json:"correlation,omitempty"`
	Tenant  string    `json:"tenant,omitempty"`
	// Submit (jobs) is the original POST /v1/jobs body, stored verbatim
	// so an interrupted job re-decodes through the same DecodeSubmit path
	// at boot (registries revalidate; results are deterministic).
	Submit json.RawMessage `json:"submit,omitempty"`
	// Spec (campaigns) is the normalized campaign spec; it re-resolves at
	// boot to the same cells and the same spec hash, which is what ties
	// the record to its checkpoint manifest.
	Spec   json.RawMessage `json:"spec,omitempty"`
	Status string          `json:"status"`
	// Final is the terminal status snapshot, served verbatim after a
	// restart (wall-clock fields and all — the record is the history).
	Final json.RawMessage `json:"final,omitempty"`
}

// seqsRecord persists the ID counters, exactly like journal seqs: boot
// continues the numbering, so IDs minted before a restart stay unique
// and resolvable after it.
type seqsRecord struct {
	Version     int    `json:"version"`
	JobSeq      uint64 `json:"jobSeq"`
	CampaignSeq uint64 `json:"campaignSeq"`
}

// stateStore owns the state directory layout:
//
//	<dir>/seqs.json            ID counters
//	<dir>/jobs/<id>.json       one record per admitted job
//	<dir>/campaigns/<id>.json  one record per admitted campaign
//	<dir>/checkpoints/<id>.ckpt  campaign manifests, keyed by server ID
//
// All writes go through writeAtomic; readers (boot) never see a torn
// record. Calls happen on admission/terminal cold paths, under s.mu or
// from the single runner goroutine that owns the record — never on the
// per-instance hot path, so state-dir-off costs exactly nothing and
// state-dir-on costs one small file write per lifecycle transition.
type stateStore struct {
	dir string
}

// openStateStore creates the directory layout.
func openStateStore(dir string) (*stateStore, error) {
	for _, d := range []string{dir, filepath.Join(dir, "jobs"), filepath.Join(dir, "campaigns"), filepath.Join(dir, "checkpoints")} {
		if err := os.MkdirAll(d, 0o755); err != nil {
			return nil, fmt.Errorf("server: state dir: %w", err)
		}
	}
	return &stateStore{dir: dir}, nil
}

// path is the record location of one unit of work of kind k.
func (st *stateStore) path(k *kind, id string) string {
	return filepath.Join(st.dir, k.dir, id+".json")
}

// checkpointPath is the campaign's manifest location — derived from the
// server campaign ID, so the record and the checkpoint can only ever
// describe the same run.
func (st *stateStore) checkpointPath(id string) string {
	return filepath.Join(st.dir, "checkpoints", id+".ckpt")
}

// writeAtomic is the campaign-manifest write dance: temp file in the
// target directory, fsync, rename, fsync the directory. A crash at any
// instant leaves either the previous record or the next — never a torn
// one — and the directory fsync makes the rename itself durable.
func writeAtomic(path string, b []byte) error {
	tmp, err := os.CreateTemp(filepath.Dir(path), filepath.Base(path)+".tmp-*")
	if err != nil {
		return err
	}
	_, werr := tmp.Write(b)
	if werr == nil {
		werr = tmp.Sync()
	}
	if cerr := tmp.Close(); werr == nil {
		werr = cerr
	}
	if werr != nil {
		os.Remove(tmp.Name())
		return werr
	}
	if err := os.Rename(tmp.Name(), path); err != nil {
		os.Remove(tmp.Name())
		return err
	}
	if d, err := os.Open(filepath.Dir(path)); err == nil {
		d.Sync() //nolint:errcheck // best-effort; some filesystems reject dir fsync
		d.Close()
	}
	return nil
}

func writeRecord(path string, v any) error {
	b, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return fmt.Errorf("server: encode state record: %w", err)
	}
	b = append(b, '\n')
	if err := writeAtomic(path, b); err != nil {
		return fmt.Errorf("server: write state record: %w", err)
	}
	return nil
}

// save writes w's record with the given lifecycle status (and, for a
// terminal one, its final snapshot).
func (st *stateStore) save(k *kind, w work, status string, final json.RawMessage) error {
	h := w.hdr()
	rec := &record{
		Version: stateVersion, ID: h.id, Created: h.created, Corr: h.corr, Tenant: h.tenant,
		Status: status, Final: final,
	}
	*k.bodyField(rec) = w.payload()
	return writeRecord(st.path(k, h.id), rec)
}

func (st *stateStore) saveSeqs(jobSeq, campSeq uint64) error {
	return writeRecord(filepath.Join(st.dir, "seqs.json"),
		&seqsRecord{Version: stateVersion, JobSeq: jobSeq, CampaignSeq: campSeq})
}

// remove forgets an evicted entry's record and campaign checkpoint;
// once the in-memory table has dropped the entry, a restart must not
// resurrect it.
func (st *stateStore) remove(k *kind, id string) {
	os.Remove(st.path(k, id))        //nolint:errcheck // already-gone is fine
	os.Remove(st.checkpointPath(id)) //nolint:errcheck
}

// loadSeqs reads the persisted ID counters (zero when absent).
func (st *stateStore) loadSeqs() (jobSeq, campSeq uint64, err error) {
	b, err := os.ReadFile(filepath.Join(st.dir, "seqs.json"))
	if os.IsNotExist(err) {
		return 0, 0, nil
	}
	if err != nil {
		return 0, 0, fmt.Errorf("server: read state seqs: %w", err)
	}
	var rec seqsRecord
	if err := json.Unmarshal(b, &rec); err != nil {
		return 0, 0, fmt.Errorf("server: corrupt state seqs: %v", err)
	}
	if rec.Version != stateVersion {
		return 0, 0, fmt.Errorf("server: state seqs version %d, want %d", rec.Version, stateVersion)
	}
	return rec.JobSeq, rec.CampaignSeq, nil
}

// load reads every record of kind k, sorted by ID (zero-padded IDs
// make lexicographic order creation order). Records are written
// atomically, so a record that fails to parse is real damage, not a torn
// write — boot fails loudly rather than silently forgetting admitted
// work.
func (st *stateStore) load(k *kind) ([]*record, error) {
	paths, err := recordPaths(filepath.Join(st.dir, k.dir))
	if err != nil {
		return nil, err
	}
	recs := make([]*record, 0, len(paths))
	for _, p := range paths {
		b, err := os.ReadFile(p)
		if err != nil {
			return nil, fmt.Errorf("server: read state record: %w", err)
		}
		rec := &record{}
		if err := json.Unmarshal(b, rec); err != nil {
			return nil, fmt.Errorf("server: corrupt state record %s: %v", p, err)
		}
		if rec.Version != stateVersion {
			return nil, fmt.Errorf("server: state record %s has version %d, want %d", p, rec.Version, stateVersion)
		}
		recs = append(recs, rec)
	}
	return recs, nil
}

// armState opens the state store and restores the previous process's
// tables. Terminal records become servable history again (their final
// snapshots are served verbatim); records still marked "admitted" are
// interrupted work, left queued in the tables for New to re-run once
// the journal is armed. ID sequences continue from the persisted
// counters, defensively maxed against the stored record IDs so even a
// lost seqs.json cannot re-mint an ID a client already holds.
//
// Runs inside New before the server serves anything, so the table
// mutations need no locks.
func (s *Server) armState() error {
	st, err := openStateStore(s.cfg.StateDir)
	if err != nil {
		return err
	}
	if s.jobs.seq, s.campaigns.seq, err = st.loadSeqs(); err != nil {
		return err
	}
	s.state = st
	for _, k := range s.kinds() {
		recs, err := st.load(k)
		if err != nil {
			return err
		}
		for _, rec := range recs {
			k.seq = max(k.seq, idSeq(rec.ID))
			var w work
			switch rec.Status {
			case recDone, recFailed:
				w = k.blank()
				if rec.Final != nil {
					// Marshalling compacts the record's indented snapshot, so
					// the table holds it at its wire size; it parsed, so it
					// cannot fail.
					w.hdr().restored, _ = json.Marshal(rec.Final)
				}
			case recAdmitted:
				// The stored body re-decodes through the admission path's
				// own decoder; results are a pure function of the spec, so
				// the re-run serves what the interrupted run would have.
				if w, err = k.decode(s, bytes.NewReader(*k.bodyField(rec)), 0); err != nil {
					return fmt.Errorf("server: state record %s: %v", rec.ID, err)
				}
			default:
				return fmt.Errorf("server: state record %s has unknown status %q", rec.ID, rec.Status)
			}
			h := w.hdr()
			h.admit(rec.ID, rec.Created, rec.Corr, rec.Tenant)
			if rec.Status != recAdmitted {
				h.state.Store(int32(stateDone))
				if rec.Status == recFailed {
					h.state.Store(int32(stateFailed))
				}
				close(h.done)
			}
			k.insert(w)
		}
		// A history larger than MaxJobsKept still respects the table
		// bound; eviction forgets the trimmed records' files too.
		s.evictLocked(k)
	}
	return nil
}

// idSeq parses the numeric tail of a "j-%06d"/"c-%06d" ID (0 when
// malformed).
func idSeq(id string) uint64 {
	i := strings.IndexByte(id, '-')
	if i < 0 {
		return 0
	}
	n, _ := strconv.ParseUint(id[i+1:], 10, 64)
	return n
}

// recordPaths lists the .json records under dir in name (= ID) order,
// skipping leftover temp files from a crash mid-write.
func recordPaths(dir string) ([]string, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("server: read state dir: %w", err)
	}
	var paths []string
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".json") {
			continue
		}
		paths = append(paths, filepath.Join(dir, name))
	}
	sort.Strings(paths)
	return paths, nil
}
