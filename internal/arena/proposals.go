// Derived-batch execution: Submit's (key, bit) proposals served in
// shard-routed batches. Where Submit pays a request allocation, a queue
// hop and a result channel per instance, RunProposals collects each
// shard's proposals into batches of up to ProposalBatchSize and routes
// every batch, as one queue entry, to the shard its keys hash to. One
// worker serves the whole batch in one loop and hands back the batch's
// ShardStats, which the caller folds once per batch.
//
// Everything observable per instance stays per instance: each proposal
// runs through the same derived-spec and run body as a single Submit —
// the same seed and inputs from the shard seed and the key hash, the
// same metrics-stripe observation (one latency sample per instance), the
// same Config.OnServe call, and, with tracing armed, the same recorder
// reset and trace-keeper offer. Because a batch is served on its keys'
// own shard, outcomes, per-shard and arena Stats, the drain count and
// trace captures are identical to submitting every proposal alone.
package arena

import (
	"fmt"
	"time"

	"leanconsensus/internal/engine"
)

// ProposalBatchSize is the largest number of proposals RunProposals puts
// in one batch. A batch costs one queue entry, request and hand-back, so
// the per-instance share of that overhead is 1/ProposalBatchSize of what
// Submit pays, while a batch still stays short next to a bulk workload:
// at about 10 µs per small-n instance, a full batch is about 1 ms of one
// worker's time.
const ProposalBatchSize = 128

// proposalBatchSize is the batch size RunProposals uses for count
// proposals: ProposalBatchSize, shrunk so that an even spread of count
// over the pool still gives every worker of every shard a batch. A batch
// is served by one worker, so without the cap a shard holding fewer than
// Workers×ProposalBatchSize proposals would be one batch on one worker
// while the shard's other workers idle — which matters for few, costly
// instances (large n, msgnet), where one full batch is seconds of work.
func (a *Arena) proposalBatchSize(count int) int {
	workers := len(a.shards) * a.cfg.Workers
	return max(1, min(ProposalBatchSize, (count+workers-1)/workers))
}

// proposalBatch is one queued run of derived proposals, all routed to the
// same shard. The submitter owns it until it is enqueued and again after
// the worker hands it back on the request's batchDone channel; in between
// the worker owns it and fills stats.
type proposalBatch struct {
	keys  []string
	bits  []int
	stats ShardStats
}

// RunProposals serves count derived proposals — gen(i) gives the i-th
// (key, bit) pair, called once per index, in order — with the same
// outcomes as Submit(key, bit) for each. Proposals are grouped per shard
// into batches of up to ProposalBatchSize, fewer when count is too small
// to fill one batch per worker at that size (see proposalBatchSize); a
// shard's batch is submitted when it fills, and every partial batch at
// the end. fn receives each
// served batch's ShardStats on the caller's goroutine, in completion
// order; the stats of all batches sum to the count proposals' stats.
//
// A bounded window of outstanding batches keeps memory independent of
// count. On error (a bit outside {0, 1}, or ErrClosed) RunProposals
// stops submitting, delivers every batch already submitted to fn, and
// returns the error; proposals generated but never submitted are not
// served, so the caller recovers their number as count minus the served
// Proposals.
func (a *Arena) RunProposals(count int, gen func(i int) (key string, bit int), fn func(ShardStats)) error {
	if count <= 0 {
		return nil
	}
	// One batch in service per worker plus one queued per shard keeps
	// every worker busy; the done channel holds every outstanding batch,
	// so workers never block handing one back.
	window := len(a.shards) * (a.cfg.Workers + 1)
	size := a.proposalBatchSize(count)
	done := make(chan *proposalBatch, window)
	pending := make([]*proposalBatch, len(a.shards))
	var free []*proposalBatch
	outstanding := 0
	receive := func() {
		b := <-done
		outstanding--
		fn(b.stats)
		free = append(free, b)
	}
	flush := func(shard int) error {
		b := pending[shard]
		pending[shard] = nil
		if outstanding == window {
			receive()
		}
		req := &request{shard: shard, enq: time.Now(), batch: b, batchDone: done}
		if err := a.enqueue(req); err != nil {
			return err
		}
		outstanding++
		return nil
	}

	var err error
	for i := 0; i < count && err == nil; i++ {
		key, bit := gen(i)
		if bit != 0 && bit != 1 {
			err = fmt.Errorf("arena: proposed bit must be 0 or 1, got %d", bit)
			break
		}
		shard := a.ShardFor(key)
		b := pending[shard]
		if b == nil {
			if k := len(free); k > 0 {
				b, free = free[k-1], free[:k-1]
				b.keys, b.bits = b.keys[:0], b.bits[:0]
			} else {
				b = &proposalBatch{
					keys: make([]string, 0, size),
					bits: make([]int, 0, size),
				}
			}
			pending[shard] = b
		}
		b.keys = append(b.keys, key)
		b.bits = append(b.bits, bit)
		if len(b.keys) == size {
			err = flush(shard)
		}
	}
	for shard := range pending {
		if err == nil && pending[shard] != nil {
			err = flush(shard)
		}
	}
	for outstanding > 0 {
		receive()
	}
	return err
}

// serveBatch runs every proposal of a derived batch, in order, through
// the single-instance derived path, then merges the batch's stats into
// the shard under one lock.
func (a *Arena) serveBatch(s *shard, sess *engine.Session, req *request, wm *workerMetrics, tk *traceKeeper) {
	b := req.batch
	b.stats = ShardStats{}
	for i, key := range b.keys {
		if rec := sess.Trace(); rec != nil {
			rec.Reset()
		}
		res := a.run(s, sess, a.cfg.Model, a.derivedSpec(s, sess, key, b.bits[i]), req.enq, tk)
		b.stats.add(res)
		a.served(res, wm)
	}
	s.mu.Lock()
	s.stats.merge(b.stats)
	s.mu.Unlock()
}
