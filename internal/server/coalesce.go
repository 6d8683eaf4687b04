// The commit pipeline: one committer goroutine that every durability mode
// commits through, and that amortizes the fsync across concurrent writers
// when the mode allows it.
//
// Writers hand their commit to the committer, which drains what is
// queued (up to the mode's batch size), stages each commit as its own
// group in the store's log (StageCommit — write, no sync), and promotes
// the whole batch with ONE shared fsync (SyncBatch). Under
// Durability=per-commit the batch size is 1: every writer pays a full
// fsync alone, so aggregate write throughput flatlines at
// 1/fsync-latency no matter how many clients push. Under
// Durability=group every waiter is acknowledged only after the shared
// durable boundary, so the guarantee each writer observes is exactly
// per-commit durability — the fsync is merely shared. While the fsync for
// batch N runs, the queue for batch N+1 builds, which is what makes
// throughput scale with concurrency instead of flatlining (experiment
// E18). Every mode records the same spans under a writer's commit span:
// queue-wait, stage, fsync, publish.
//
// Failure discipline (the PR 2/4 machinery, moved to the batch): a failed
// stage or batch fsync has already truncated the log back to the
// pre-batch durable end inside the store, so the coalescer fails every
// waiter in the batch with the same typed cause and replays the log
// (rollback) to re-derive the in-memory store state; if even that fails
// the write path is poisoned. Results are decided solely by the
// stage/sync outcome under commitMu — never by observing the poisoned
// flag afterwards — so degraded-mode entry between stage and ack can
// never acknowledge a writer whose group was truncated back (the
// double-ack hazard).
//
// Idempotency keys are recorded only after the batch is durable; a
// duplicate key *within* one batch stages once and both waiters share the
// recorded result — exactly-once across batch boundaries.
//
// Durability=async is the honest fast-and-loose mode: waiters are
// acknowledged after their group is staged and the successor state is
// published, and the shared fsync happens right after, still on the
// committer goroutine. The acknowledged-but-not-yet-durable window is
// published as the acked-end watermark next to the durable end (HEALTH,
// STATS). If the async fsync fails, acknowledged writes were lost: the
// write path poisons unconditionally, because the published state can no
// longer be made durable.
package server

import (
	"fmt"
	"time"

	"dbpl/internal/server/wire"
	rtrace "dbpl/internal/telemetry/trace"
)

// Durability selects when a write is acknowledged relative to its fsync.
type Durability int

const (
	// DurPerCommit: every commit group pays its own fsync before the ack
	// (the committer with a batch of one). The default.
	DurPerCommit Durability = iota
	// DurGroup: concurrent commits are staged into one batch and promoted
	// by one shared fsync; every waiter acks after that shared durable
	// boundary. Same guarantee as per-commit, amortized cost.
	DurGroup
	// DurAsync: commits are acknowledged after staging (write, no sync);
	// the shared fsync follows immediately but the ack does not wait for
	// it. A crash may lose acknowledged writes up to the published
	// acked-end watermark. See docs/PERSISTENCE.md.
	DurAsync
)

func (d Durability) String() string {
	switch d {
	case DurGroup:
		return "group"
	case DurAsync:
		return "async"
	default:
		return "per-commit"
	}
}

// ParseDurability maps the serve flag spelling to a Durability.
func ParseDurability(s string) (Durability, error) {
	switch s {
	case "", "per-commit":
		return DurPerCommit, nil
	case "group":
		return DurGroup, nil
	case "async":
		return DurAsync, nil
	}
	return DurPerCommit, fmt.Errorf("unknown durability %q (want per-commit, group or async)", s)
}

// commitReq is one writer's commit handed to the committer goroutine.
// tr/sp carry the writer's trace across the goroutine boundary: the
// committer appends queue-wait/stage/fsync/publish child spans under
// sp (the writer's "commit" span) while the writer blocks on done, so
// the finished tree shows exactly where a group-committed write spent
// its time. Both are nil/zero for unsampled requests.
type commitReq struct {
	ops      []txnOp
	key      string
	enqueued time.Time
	tr       *rtrace.Trace
	sp       rtrace.SpanID
	done     chan commitResult // buffered(1); exactly one send
}

type commitResult struct {
	existed []bool
	err     error
}

// committerLoop is the dedicated committer goroutine: it blocks for the
// next queued commit, drains whatever else is already queued (up to the
// mode's batch size, lingering up to GroupMaxDelay for stragglers), and
// processes the batch under commitMu. It exits when commitCh closes
// (Shutdown, after every request handler has returned), having processed
// everything that was queued.
func (s *Server) committerLoop() {
	defer close(s.committerDone)
	maxBatch := s.cfg.groupMaxBatch()
	maxDelay := s.cfg.groupMaxDelay()
	for req := range s.commitCh {
		s.processBatch(s.collectBatch(req, maxBatch, maxDelay))
	}
}

// collectBatch gathers the current batch: first, then everything already
// queued, then — only when GroupMaxDelay is set — stragglers until the
// delay expires or the batch is full. With no delay configured the batch
// is simply "the queue at this instant", the classic self-tuning shape:
// batches grow exactly as fast as the fsync is slow.
func (s *Server) collectBatch(first *commitReq, maxBatch int, maxDelay time.Duration) []*commitReq {
	batch := append(make([]*commitReq, 0, maxBatch), first)
	var linger <-chan time.Time
	if maxDelay > 0 {
		t := time.NewTimer(maxDelay)
		defer t.Stop()
		linger = t.C
	}
	for len(batch) < maxBatch {
		select {
		case r, ok := <-s.commitCh:
			if !ok {
				return batch
			}
			batch = append(batch, r)
			continue
		default:
		}
		if linger == nil {
			return batch
		}
		select {
		case r, ok := <-s.commitCh:
			if !ok {
				return batch
			}
			batch = append(batch, r)
		case <-linger:
			return batch
		}
	}
	return batch
}

// processBatch stages every commit in the batch as its own group, shares
// one fsync across them, and answers every waiter. It owns the whole
// writer critical section (commitMu), so it is the only code that can
// interleave with alterIndex, Shutdown's final commit and the poison
// flag.
func (s *Server) processBatch(batch []*commitReq) {
	began := time.Now()
	s.commitMu.Lock()
	defer s.commitMu.Unlock()
	for _, r := range batch {
		s.m.commitQueueWait.ObserveDuration(began.Sub(r.enqueued))
		r.tr.Add(r.sp, "queue-wait", r.enqueued, began)
	}

	// results accumulates the answer for every waiter; send delivers it,
	// exactly once per waiter (async acks deliver early, before the
	// fsync; the deferred sweep answers everyone else).
	results := make(map[*commitReq]commitResult, len(batch))
	sent := make(map[*commitReq]bool, len(batch))
	send := func(r *commitReq) {
		if sent[r] {
			return
		}
		sent[r] = true
		res, ok := results[r]
		if !ok {
			res = commitResult{err: &wire.WireError{Code: wire.CodeInternal, Msg: "commit batch dropped a waiter"}}
		}
		r.done <- res
	}
	defer func() {
		for _, r := range batch {
			send(r)
		}
	}()

	if s.poisoned != nil {
		err := &wire.WireError{Code: wire.CodeDegraded, Msg: s.poisoned.Error()}
		for _, r := range batch {
			s.m.degraded.Inc()
			results[r] = commitResult{err: err}
		}
		return
	}
	// The fence decision point for coalesced writes: a batch that queued
	// while this server was primary but reached the committer after a
	// fence is refused whole, under the same lock the fence was applied
	// under — a demoted primary can never ack a write after its
	// successor's promotion (the double-ack discipline, extended to
	// failover).
	if r := wire.Role(s.role.Load()); r != wire.RolePrimary {
		err := s.refuseWrite(r)
		for _, req := range batch {
			results[req] = commitResult{err: err}
		}
		return
	}

	// Stage phase: each commit becomes one staged group; the successor
	// state is computed but not yet published. Requests answered from the
	// idempotency cache (their groups are already durable from an earlier
	// batch) succeed regardless of this batch's fate; a duplicate key
	// *within* the batch aliases the first occurrence's result.
	type stagedReq struct {
		req     *commitReq
		existed []bool
	}
	var staged []stagedReq
	keyOwner := map[string]int{} // key -> index into staged
	aliases := map[*commitReq]int{}
	pub := s.state.Load()
	var indexTouched uint64
	var failAll error
	for _, r := range batch {
		if r.key != "" {
			if existed, ok := s.idem.get(r.key); ok {
				s.m.idemHits.Inc()
				results[r] = commitResult{existed: existed}
				continue
			}
			if i, ok := keyOwner[r.key]; ok {
				s.m.idemHits.Inc()
				aliases[r] = i
				continue
			}
		}
		stageStart := time.Now()
		existed := make([]bool, len(r.ops))
		for i, o := range r.ops {
			_, existed[i] = pub.roots[o.name]
			if o.del {
				s.store.Unbind(o.name)
				continue
			}
			if err := s.store.Bind(o.name, o.dyn.Value(), o.dyn.Type()); err != nil {
				failAll = err
				break
			}
		}
		if failAll == nil {
			if _, err := s.store.StageCommit(); err != nil {
				failAll = err
			}
		}
		if failAll != nil {
			break
		}
		r.tr.Add(r.sp, "stage", stageStart, time.Now())
		next, istats := pub.apply(r.ops)
		pub = next
		indexTouched += uint64(istats.EntriesTouched)
		staged = append(staged, stagedReq{req: r, existed: existed})
		if r.key != "" {
			keyOwner[r.key] = len(staged) - 1
		}
	}
	if failAll != nil {
		// The store already truncated every staged group of this batch (a
		// failed stage rolls the whole open batch back); replaying the log
		// re-derives the in-memory store state, or poisons. Every waiter
		// not answered from the dedup cache fails with the same cause.
		s.rollback(failAll)
		s.failBatch(batch, results, failAll)
		return
	}
	if len(staged) == 0 {
		return // the whole batch was answered from the dedup cache
	}

	// batchTrace is the trace that represents this batch on shared
	// instruments (the sync-latency exemplar, the REPDATA stamp): the
	// first sampled waiter's trace ID, zero when none were sampled.
	var batchTrace uint64
	for _, sr := range staged {
		if id := sr.req.tr.ID(); id != 0 {
			batchTrace = id
			break
		}
	}

	async := s.cfg.Durability == DurAsync
	ack := func() {
		pubStart := time.Now()
		s.state.Store(pub)
		s.notifyCommit()
		pubEnd := time.Now()
		for _, sr := range staged {
			if sr.req.key != "" {
				s.idem.put(sr.req.key, sr.existed)
			}
			results[sr.req] = commitResult{existed: sr.existed}
			sr.req.tr.Add(sr.req.sp, "publish", pubStart, pubEnd)
			s.m.commits.Inc()
			s.m.commitSeconds.ObserveDurationExemplar(time.Since(sr.req.enqueued), sr.req.tr.ID())
			s.m.commitOps.Observe(int64(len(sr.req.ops)))
		}
		for r, i := range aliases {
			results[r] = commitResult{existed: staged[i].existed}
		}
		s.m.indexTouched.Add(indexTouched)
		s.m.batchGroups.Observe(int64(len(staged)))
		s.m.fsyncsSaved.Add(uint64(len(staged) - 1))
	}

	if async {
		// Acked-but-not-yet-durable: publish the watermark, answer the
		// waiters before the fsync (that is the mode's entire point; the
		// window is one batch wide), and record idempotency keys at ack
		// time so a retry of an acked write cannot re-apply.
		s.ackedEnd.Store(s.store.StagedEnd())
		ack()
		for _, sr := range staged {
			send(sr.req)
		}
		for r := range aliases {
			send(r)
		}
	}

	syncStart := time.Now()
	_, err := s.store.SyncBatch()
	syncEnd := time.Now()
	s.m.commitSyncSeconds.ObserveExemplar(int64(syncEnd.Sub(syncStart)), batchTrace)
	if err != nil {
		if async {
			// The waiters were already acknowledged against state that just
			// got truncated out of the log: the published state can no
			// longer be made durable. Bring the store back to the durable
			// boundary (best effort) and poison unconditionally — restart
			// is the only exit.
			s.store.Abort()
			s.poisoned = fmt.Errorf("server: write path poisoned: async commit batch lost after acknowledgement: %w", err)
			s.degraded.Store(true)
			s.logf("%v", s.poisoned)
			return
		}
		s.rollback(err)
		s.failBatch(batch, results, err)
		return
	}
	// The shared fsync becomes a child span of every durably-acked
	// waiter: the same wall-clock interval appears in each tree, which
	// is the point — it shows N writers paying one fsync. Async waiters
	// were already acknowledged (their goroutines may have recorded the
	// trace), so only sync modes append it.
	if !async {
		for _, sr := range staged {
			sr.req.tr.Add(sr.req.sp, "fsync", syncStart, syncEnd)
		}
	}
	s.markCommit(batchTrace)
	if !async {
		ack()
	}
}

// failBatch records err for every waiter in batch that does not already
// have a result (dedup-cache hits keep their success: their groups were
// made durable by an earlier batch).
func (s *Server) failBatch(batch []*commitReq, results map[*commitReq]commitResult, err error) {
	for _, r := range batch {
		if _, ok := results[r]; !ok {
			results[r] = commitResult{err: err}
		}
	}
}
