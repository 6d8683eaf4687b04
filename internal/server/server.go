// Package server is `dbpl serve`: a concurrent TCP front end that exposes
// the paper's operations — the generic Get, PUT/DELETE on named handles,
// the generalized-relation join, and commit groups — to many remote
// programs at once. "Orthogonal Persistence Revisited" (PAPERS.md) argues
// the persistent-store abstraction earns its keep precisely when shared by
// concurrent programs; this package is that sharing.
//
// # Architecture
//
// The server owns one intrinsic store (durability) and publishes, through
// an atomic pointer, an immutable *state*: the committed root bindings
// plus the index.Set derived from them — one maintained extent per member
// type and the declared field indexes, the paper's extents as a structure
// over the database rather than a second copy of it. Readers (GET, JOIN,
// NAMES outside a transaction) load the pointer and run lock-free against
// that snapshot — they can never observe a commit in progress, because
// the pointer is swapped only after the store's commit group is durable.
// Writers buffer per session and hand each commit to one committer
// goroutine (coalesce.go), which applies the operations to the store,
// makes the group durable, then publishes the next state (the roots with
// the delta applied, and the index set advanced copy-on-write). If the
// store commit fails, store.Abort() replays the log back to the last
// durable group and the published state is left untouched — the remote
// failure taxonomy (wire.CodeIO / wire.CodeCorrupt) mirrors the local one.
//
// # Sessions and transactions
//
// Each connection is a session. Outside BEGIN, PUT and DELETE autocommit
// (a one-operation commit group). BEGIN pins the session to the state
// current at that moment and buffers subsequent PUT/DELETE; the session's
// own reads see its buffered writes overlaid on the pinned snapshot
// (read-your-writes at repeatable-read isolation), while every other
// session keeps reading the published committed state. COMMIT turns the
// buffer into one commit group; ABORT discards it. Conflicts are resolved
// last-writer-wins per root name at commit time.
//
// # Shutdown
//
// Shutdown closes the listener, interrupts idle reads, lets every
// in-flight request finish and its response flush, force-closes laggards
// when the context expires, and appends a final (possibly empty) commit
// group so the shutdown itself is a durable boundary — the drain + final
// fsync the ISSUE requires, and the same path cmd/dbpl routes SIGINT and
// SIGTERM through.
package server

import (
	"bufio"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"net"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"dbpl/internal/dynamic"
	"dbpl/internal/index"
	"dbpl/internal/persist/codec"
	"dbpl/internal/persist/intrinsic"
	"dbpl/internal/persist/iofault"
	"dbpl/internal/plan"
	"dbpl/internal/relation"
	"dbpl/internal/server/wire"
	"dbpl/internal/telemetry"
	rtrace "dbpl/internal/telemetry/trace"
	"dbpl/internal/types"
	"dbpl/internal/value"
)

// ErrServerClosed is returned by Serve after Shutdown completes the drain.
var ErrServerClosed = errors.New("server: closed")

// Config tunes a Server. The zero value is usable.
type Config struct {
	// MaxFrame bounds request and response payloads; 0 means
	// wire.MaxFrame.
	MaxFrame int
	// ReadTimeout bounds receiving the remainder of a request frame once
	// its header has arrived (an idle connection may block indefinitely);
	// 0 means 30s, negative disables.
	ReadTimeout time.Duration
	// WriteTimeout bounds writing one response frame; 0 means 30s,
	// negative disables.
	WriteTimeout time.Duration
	// MaxInFlight is the admission-control cap: the number of requests
	// allowed to execute concurrently across all connections. A request
	// past the cap is shed immediately with CodeOverloaded and a
	// retry-after hint — it is never queued, so load cannot pile up
	// behind a slow disk. HEALTH is exempt, so a monitor can always ask
	// an overloaded server how overloaded it is. 0 means 1024; negative
	// disables the cap.
	MaxInFlight int
	// RetryAfterHint is the backoff hint attached to CodeOverloaded
	// refusals; 0 means 50ms.
	RetryAfterHint time.Duration
	// IdemCacheSize bounds the LRU of applied write ids that deduplicates
	// retried PUT/DELETE/COMMIT frames carrying idempotency keys; 0 means
	// 4096, negative disables deduplication.
	IdemCacheSize int
	// Registry receives the server's metrics (and is served by STATS and
	// the ops endpoint). Pass the registry the store's instrumented FS
	// writes to and one snapshot covers both layers; nil means a fresh
	// private registry. Telemetry is always on — E15 measures its cost.
	Registry *telemetry.Registry
	// SlowOpThreshold is the duration at or above which a request is
	// stamped into the slow-op ring log; 0 means 10ms, negative records
	// every request (useful for tracing under test).
	SlowOpThreshold time.Duration
	// SlowLogSize bounds the slow-op ring; 0 means 256, negative disables
	// the log entirely.
	SlowLogSize int
	// Logf, when set, receives one line per accepted connection error and
	// per protocol violation. nil discards.
	Logf func(format string, args ...any)
	// Follow, when non-empty, makes this server a read-only replication
	// follower of the primary at that address: it streams the primary's
	// log via REPLICATE, applies each verified commit group to its own log
	// and published state, serves reads, and refuses every write with
	// CodeReadOnly. See docs/REPLICATION.md.
	Follow string
	// AllowPromote enables the PROMOTE opcode on this server: a follower
	// may be promoted to primary (failover), and a primary may bump its
	// epoch. Off by default — promotion rewrites who may ack writes, so
	// every failover-enabled node must opt in explicitly (the serve verb's
	// -allow-promote flag). Fence *notifications* are always accepted:
	// refusing to learn about a higher epoch would defeat fencing.
	AllowPromote bool
	// ReplHeartbeat is the keepalive interval on idle replication streams;
	// a follower declares the link dead after 4 missed heartbeats and
	// redials with jittered backoff. 0 means 1s.
	ReplHeartbeat time.Duration
	// ReplChunk is the soft size target of one REPDATA frame; a single
	// commit group larger than it is still shipped whole. 0 means 256KiB.
	ReplChunk int
	// Durability selects when a write is acknowledged relative to its
	// fsync: DurPerCommit (default, one fsync per commit group — the
	// committer with a batch of one), DurGroup (concurrent commits share
	// one fsync, acked after it) or DurAsync (acked before the fsync; the
	// acked-end watermark is published via HEALTH/STATS). See coalesce.go
	// and docs/PERSISTENCE.md.
	Durability Durability
	// GroupMaxDelay is how long the committer lingers for stragglers after
	// the first commit of a batch, under DurGroup/DurAsync. 0 (the
	// default) means no artificial wait: a batch is whatever queued while
	// the previous fsync ran — batches grow exactly as fast as the disk is
	// slow, adding no latency when the server is idle.
	GroupMaxDelay time.Duration
	// GroupMaxBatch caps the commit groups amortized by one fsync, under
	// DurGroup/DurAsync; 0 means 64.
	GroupMaxBatch int
	// TraceSampleRate is the head-sampling probability for span-based
	// request tracing: that share of requests (by uniform trace ID)
	// record a full span tree into the trace ring, fetchable via TRACES
	// / `dbpl trace` / the ops endpoint's /traces. 0 (the default)
	// disables tracing entirely — an unsampled request costs one nil
	// check per span site; >= 1 traces everything. A request slow enough
	// for the slow-op ring has its trace force-retained regardless of
	// ring pressure. See docs/OBSERVABILITY.md.
	TraceSampleRate float64
	// TraceRingSize bounds the ring of completed trace trees; 0 means
	// 256, negative disables tracing even with a sample rate set.
	TraceRingSize int
}

func (c Config) maxFrame() int {
	if c.MaxFrame <= 0 {
		return wire.MaxFrame
	}
	return c.MaxFrame
}

func (c Config) maxInFlight() int64 {
	if c.MaxInFlight == 0 {
		return 1024
	}
	if c.MaxInFlight < 0 {
		return 0 // uncapped
	}
	return int64(c.MaxInFlight)
}

func (c Config) retryAfterHint() time.Duration {
	if c.RetryAfterHint <= 0 {
		return 50 * time.Millisecond
	}
	return c.RetryAfterHint
}

func (c Config) idemCacheSize() int {
	if c.IdemCacheSize == 0 {
		return 4096
	}
	if c.IdemCacheSize < 0 {
		return 0 // disabled
	}
	return c.IdemCacheSize
}

func (c Config) slowOpThreshold() time.Duration {
	if c.SlowOpThreshold == 0 {
		return 10 * time.Millisecond
	}
	if c.SlowOpThreshold < 0 {
		return 0 // record everything
	}
	return c.SlowOpThreshold
}

func (c Config) slowLogSize() int {
	if c.SlowLogSize == 0 {
		return 256
	}
	if c.SlowLogSize < 0 {
		return 0 // disabled
	}
	return c.SlowLogSize
}

func (c Config) replHeartbeat() time.Duration {
	if c.ReplHeartbeat <= 0 {
		return time.Second
	}
	return c.ReplHeartbeat
}

func (c Config) replChunk() int {
	if c.ReplChunk <= 0 {
		return 256 << 10
	}
	return c.ReplChunk
}

func (c Config) groupMaxBatch() int {
	if c.Durability == DurPerCommit {
		return 1
	}
	if c.GroupMaxBatch <= 0 {
		return 64
	}
	return c.GroupMaxBatch
}

func (c Config) groupMaxDelay() time.Duration {
	if c.GroupMaxDelay < 0 {
		return 0
	}
	return c.GroupMaxDelay
}

func (c Config) traceRingSize() int {
	if c.TraceRingSize == 0 {
		return 256
	}
	if c.TraceRingSize < 0 {
		return 0 // disabled
	}
	return c.TraceRingSize
}

func timeoutOr(d, def time.Duration) time.Duration {
	if d == 0 {
		return def
	}
	if d < 0 {
		return 0
	}
	return d
}

// state is one immutable committed view: the root bindings and the
// maintained extents + field indexes over the same membership. Published
// through Server.state; never mutated after publication.
type state struct {
	roots map[string]*dynamic.Dynamic
	idx   *index.Set
}

// apply returns the successor state with ops applied, copying the roots
// map and advancing the index set (COW, single successor) so the previous
// state stays valid for readers holding it. The returned stats report the
// index-maintenance work done.
func (st *state) apply(ops []txnOp) (*state, index.ApplyStats) {
	next := &state{roots: make(map[string]*dynamic.Dynamic, len(st.roots)+len(ops))}
	for k, v := range st.roots {
		next.roots[k] = v
	}
	iops := make([]index.Op, 0, len(ops))
	for _, o := range ops {
		var iop index.Op
		if old, ok := next.roots[o.name]; ok {
			delete(next.roots, o.name)
			iop.Remove = old
		}
		if !o.del {
			next.roots[o.name] = o.dyn
			iop.Add = o.dyn
		}
		if iop.Remove != nil || iop.Add != nil {
			iops = append(iops, iop)
		}
	}
	var stats index.ApplyStats
	next.idx, stats = st.idx.Apply(iops)
	return next, stats
}

// txnOp is one buffered session write: bind name to dyn, or delete it.
type txnOp struct {
	name string
	dyn  *dynamic.Dynamic
	del  bool
}

// Server serves the dbpl wire protocol over an intrinsic store.
type Server struct {
	cfg   Config
	store *intrinsic.Store

	// state is the published committed view; see the package comment.
	state atomic.Pointer[state]
	// commitMu serializes writers end to end — store mutation, commit
	// group, state publication — across the committer, index DDL, the
	// follower apply, failover and Shutdown's final group.
	commitMu sync.Mutex
	// poisoned (guarded by commitMu) is set when a failed commit could not
	// be rolled back: the store's in-memory state has diverged from the
	// published committed state, and any further commit group would durably
	// encode that divergence. Every subsequent write is refused with it.
	poisoned error
	// degraded mirrors poisoned != nil for readers that must not touch
	// commitMu: the HEALTH handler has to report a poisoned write path
	// even while a wedged commit is holding the lock.
	degraded atomic.Bool
	// idem (guarded by commitMu) deduplicates retried writes; see idem.go.
	idem *idemCache

	// m is the always-on metric set; m.inflight is the admission-control
	// gauge (requests admitted, response not yet produced). slow is the
	// bounded slow-op ring, nil when disabled.
	m     *serverMetrics
	slow  *telemetry.SlowLog
	start time.Time

	// traces is the ring of completed span trees and sampler its head-
	// sampling decision; traces == nil means tracing is off and every
	// request carries a nil *rtrace.Trace (each span site then costs one
	// nil check — the E20 overhead budget).
	traces  *rtrace.Ring
	sampler rtrace.Sampler
	// lastCommit is the most recent durable commit's mark — log end,
	// originating trace, publication wall-clock — read by replication
	// streamers to attach trace context to the REPDATA frame that ships
	// that commit. Stored under commitMu; loaded lock-free.
	lastCommit atomic.Pointer[commitMark]

	// planModel is the feedback-fed cost model choosing the GET access
	// path; every executed GET observes its latency back into it.
	planModel *plan.Model

	draining atomic.Bool
	mu       sync.Mutex // guards ln, conns
	ln       net.Listener
	conns    map[net.Conn]struct{}
	wg       sync.WaitGroup

	// commitSignal wakes idle replication streamers: every state
	// publication swaps in a fresh channel and closes the old one, so a
	// streamer that loaded the channel *before* reading the durable end
	// can never miss a commit (see notifyCommit).
	commitSignal atomic.Pointer[chan struct{}]
	// shutdownCh is closed when Shutdown begins, waking replication
	// streamers and the follow loop, which never sit in deadline-
	// interruptible request reads.
	shutdownCh   chan struct{}
	shutdownOnce sync.Once
	// follower is the follow-loop state, nil unless cfg.Follow is set.
	follower *followerState

	// role is the server's replication role (a wire.Role): RolePrimary
	// acks writes, RoleFollower refuses them naming the upstream,
	// RoleFenced is a demoted primary that observed a higher promotion
	// epoch and refuses them naming its successor. It starts from
	// cfg.Follow and changes only under commitMu — PROMOTE makes this
	// server the primary, a fence demotes it — so no write decision can
	// race a role change (the double-ack discipline).
	role atomic.Int32
	// fencedBy is the address of the higher-epoch primary that fenced
	// this server, for CodeFenced messages; nil when unknown (the fence
	// was inferred from a replication stream, not a notification).
	fencedBy atomic.Pointer[string]

	// commitCh feeds the committer goroutine, the one commit pipeline of
	// every durability mode. committerDone closes when the committer has
	// drained the queue and exited; committerStop guards the close of
	// commitCh (Shutdown may be called twice). See coalesce.go.
	commitCh      chan *commitReq
	committerDone chan struct{}
	committerStop sync.Once
	// ackedEnd is the acknowledged-end watermark under DurAsync: the log
	// offset up to which writes have been acked, at or ahead of the
	// durable end by at most one in-flight batch. Zero (and ignored) in
	// the synchronous modes, where nothing is acked before it is durable.
	ackedEnd atomic.Int64
}

// commitMark records the most recent durable, published commit for the
// replication plane: the log end it produced, the trace that committed
// it (0 when the commit was unsampled), and the wall clock at
// publication. A replication streamer whose next chunk ends exactly at
// mark.end attaches the trace and timestamp to that REPDATA frame, so
// the follower can link its apply span to the primary's commit span and
// measure commit-to-visible delay.
type commitMark struct {
	end   int64
	trace uint64
	ns    int64
}

// markCommit publishes the just-committed durable end with its trace
// context. Called with commitMu held (or from the committer goroutine,
// which owns the same serialization).
func (s *Server) markCommit(trace uint64) {
	s.lastCommit.Store(&commitMark{end: s.store.DurableEnd(), trace: trace, ns: time.Now().UnixNano()})
}

// stateFromStore derives a published state from the store's committed
// roots. The index set rebuilds from those roots on every open (only the
// *definitions* are durable), so it can never be ahead of the durable
// state — the crash-matrix invariant.
func stateFromStore(store *intrinsic.Store) (*state, error) {
	st := &state{roots: map[string]*dynamic.Dynamic{}}
	var members []*dynamic.Dynamic
	for _, name := range store.Names() {
		r, ok := store.Root(name)
		if !ok {
			continue
		}
		d, err := dynamic.MakeAt(r.Value, r.Declared)
		if err != nil {
			return nil, fmt.Errorf("server: root %q does not conform to its declared type: %w", name, err)
		}
		st.roots[name] = d
		members = append(members, d)
	}
	defs := make([]index.Def, 0, 4)
	for _, f := range store.IndexDefs() {
		defs = append(defs, index.Def{Field: f})
	}
	st.idx = index.Rebuild(members, defs...)
	return st, nil
}

// New builds a server over an opened store, deriving the initial
// published state from the store's committed roots. When cfg.Follow is
// set, the store enters replica mode (local writes refused from here on)
// and the follow loop starts immediately — the server replicates even
// before Serve is called.
func New(store *intrinsic.Store, cfg Config) (*Server, error) {
	if cfg.Follow != "" {
		store.EnterReplica()
	}
	st, err := stateFromStore(store)
	if err != nil {
		return nil, err
	}
	srv := &Server{cfg: cfg, store: store, conns: map[net.Conn]struct{}{}, start: time.Now()}
	if cfg.Follow != "" {
		srv.role.Store(int32(wire.RoleFollower))
	}
	srv.shutdownCh = make(chan struct{})
	srv.notifyCommit() // seed the commit-signal channel
	if n := cfg.idemCacheSize(); n > 0 {
		srv.idem = newIdemCache(n)
	}
	srv.state.Store(st)
	reg := cfg.Registry
	if reg == nil {
		reg = telemetry.NewRegistry()
	}
	srv.m = newServerMetrics(reg)
	srv.planModel = plan.NewModel(reg)
	// Derived gauges: values that already live elsewhere, captured at
	// snapshot time so HEALTH, STATS and /metrics all read one consistent
	// Snapshot instead of re-loading atomics field by field.
	reg.GaugeFunc("dbpl_server_uptime_ns", func() int64 { return int64(time.Since(srv.start)) })
	reg.GaugeFunc("dbpl_server_roots", func() int64 { return int64(len(srv.state.Load().roots)) })
	reg.GaugeFunc("dbpl_index_defs", func() int64 { return int64(len(srv.state.Load().idx.Defs())) })
	reg.GaugeFunc("dbpl_index_extents", func() int64 { return int64(srv.state.Load().idx.Types()) })
	reg.GaugeFunc("dbpl_server_degraded", func() int64 {
		if srv.degraded.Load() {
			return 1
		}
		return 0
	})
	reg.GaugeFunc("dbpl_store_durable_end", func() int64 { return store.DurableEnd() })
	// The acked-end watermark: equal to the durable end except under
	// DurAsync, where it runs ahead by the acked-but-unsynced window.
	reg.GaugeFunc("dbpl_server_acked_end", func() int64 {
		if ae := srv.ackedEnd.Load(); ae > store.DurableEnd() {
			return ae
		}
		return store.DurableEnd()
	})
	reg.GaugeFunc("dbpl_server_readonly", func() int64 {
		if wire.Role(srv.role.Load()) != wire.RolePrimary {
			return 1
		}
		return 0
	})
	// Failover observability: the promotion epoch (the store's, so it is
	// exactly what the log holds) and the current role, for HEALTH, STATS
	// and /metrics — a client picks the new primary as the highest-epoch
	// node reporting RolePrimary.
	reg.GaugeFunc("dbpl_server_epoch", func() int64 { return int64(store.Epoch()) })
	reg.GaugeFunc("dbpl_repl_role", func() int64 { return int64(srv.role.Load()) })
	if n := cfg.slowLogSize(); n > 0 {
		srv.slow = telemetry.NewSlowLog(n, cfg.slowOpThreshold())
	}
	if cfg.TraceSampleRate > 0 {
		if n := cfg.traceRingSize(); n > 0 {
			srv.traces = rtrace.NewRing(n)
			srv.sampler = rtrace.NewSampler(cfg.TraceSampleRate)
			reg.GaugeFunc("dbpl_trace_total", srv.traces.Total)
		}
	}
	if cfg.Follow != "" {
		f := &followerState{done: make(chan struct{}), stop: make(chan struct{})}
		srv.follower = f
		reg.GaugeFunc("dbpl_repl_primary_end", func() int64 { return f.primaryEnd.Load() })
		reg.GaugeFunc("dbpl_repl_lag_bytes", func() int64 {
			if lag := f.primaryEnd.Load() - store.DurableEnd(); lag > 0 {
				return lag
			}
			return 0
		})
		go srv.followLoop()
	}
	// The committer always starts — even on a follower, where it idles: a
	// promoted follower must be able to ack writes immediately, and
	// starting the goroutine late would race every reader of commitCh.
	srv.commitCh = make(chan *commitReq, cfg.groupMaxBatch())
	srv.committerDone = make(chan struct{})
	go srv.committerLoop()
	return srv, nil
}

// Telemetry returns the server's metrics registry (the one STATS and the
// ops endpoint serve).
func (s *Server) Telemetry() *telemetry.Registry { return s.m.reg }

// SlowOps returns the retained slow-op log entries, newest first; nil
// when the log is disabled.
func (s *Server) SlowOps() []telemetry.SlowOp {
	if s.slow == nil {
		return nil
	}
	return s.slow.Snapshot()
}

// Traces returns the retained completed trace trees, newest first; nil
// when tracing is disabled.
func (s *Server) Traces() []rtrace.Data {
	if s.traces == nil {
		return nil
	}
	return s.traces.Snapshot()
}

func (s *Server) logf(format string, args ...any) {
	if s.cfg.Logf != nil {
		s.cfg.Logf(format, args...)
	}
}

// Addr returns the listening address, nil before Serve.
func (s *Server) Addr() net.Addr {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.ln == nil {
		return nil
	}
	return s.ln.Addr()
}

// ListenAndServe listens on addr (":7070" style) and serves until
// Shutdown.
func (s *Server) ListenAndServe(addr string) error {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	return s.Serve(ln)
}

// Serve accepts connections on ln until Shutdown, returning
// ErrServerClosed after a clean drain.
func (s *Server) Serve(ln net.Listener) error {
	s.mu.Lock()
	s.ln = ln
	s.mu.Unlock()
	if s.draining.Load() {
		ln.Close()
		return ErrServerClosed
	}
	for {
		conn, err := ln.Accept()
		if err != nil {
			if s.draining.Load() {
				return ErrServerClosed
			}
			return err
		}
		if s.draining.Load() {
			conn.Close()
			continue
		}
		s.mu.Lock()
		s.conns[conn] = struct{}{}
		s.mu.Unlock()
		s.wg.Add(1)
		go s.serveConn(conn)
	}
}

// Shutdown drains the server: no new connections or requests are
// accepted, requests already received run to completion and their
// responses flush, then a final commit group is appended so shutdown is a
// durable boundary. When ctx expires first, remaining connections are
// force-closed. The store is left open — the caller owns it.
func (s *Server) Shutdown(ctx context.Context) error {
	s.draining.Store(true)
	// Wake replication streamers (select-blocked, not read-blocked) and the
	// follow loop, and sever the follower's upstream link so its blocked
	// stream read fails now rather than at the heartbeat deadline.
	s.shutdownOnce.Do(func() { close(s.shutdownCh) })
	if s.follower != nil {
		s.follower.closeConn()
	}
	s.mu.Lock()
	if s.ln != nil {
		s.ln.Close()
	}
	// Interrupt idle reads: a session blocked waiting for the next request
	// header wakes with a deadline error and exits; a session mid-handle
	// is untouched (writes have their own deadline) and finishes.
	for c := range s.conns {
		c.SetReadDeadline(time.Now())
	}
	s.mu.Unlock()

	done := make(chan struct{})
	go func() {
		s.wg.Wait()
		close(done)
	}()
	select {
	case <-done:
	case <-ctx.Done():
		s.mu.Lock()
		for c := range s.conns {
			c.Close()
		}
		s.mu.Unlock()
		<-done
	}

	if s.follower != nil {
		<-s.follower.done
	}

	// Every request handler has returned (wg), so no writer can enqueue
	// again: close the commit queue and let the committer drain what is
	// left before the final durable boundary below.
	s.committerStop.Do(func() { close(s.commitCh) })
	<-s.committerDone

	// Final fsync: an (often empty) commit group marking the shutdown
	// boundary durable. A poisoned write path must not append it — the
	// store's in-memory root table has diverged from the committed state,
	// and the group would durably encode that divergence. A follower's log
	// grows only through ApplyGroup (every applied group was already
	// fsynced), so there is nothing to append — and the replica-mode store
	// would refuse the attempt.
	s.commitMu.Lock()
	defer s.commitMu.Unlock()
	if s.poisoned != nil {
		return s.poisoned
	}
	if wire.Role(s.role.Load()) != wire.RolePrimary {
		return nil
	}
	if _, err := s.store.Commit(); err != nil {
		return err
	}
	return nil
}

// session is the per-connection protocol state.
type session struct {
	srv   *Server
	inTxn bool
	base  *state // snapshot pinned at BEGIN
	ops   []txnOp
	// overlay indexes the last buffered op per name, for read-your-writes.
	overlay map[string]int
	// tr is the current request's span tree, nil when the request is
	// unsampled. Set by serveConn around each dispatch; handlers thread
	// it into the plan/commit paths.
	tr *rtrace.Trace
}

func (s *Server) serveConn(conn net.Conn) {
	defer s.wg.Done()
	defer func() {
		s.mu.Lock()
		delete(s.conns, conn)
		s.mu.Unlock()
		conn.Close()
	}()
	s.m.sessions.Add(1)
	defer s.m.sessions.Add(-1)
	sess := &session{srv: s}
	readTO := timeoutOr(s.cfg.ReadTimeout, 30*time.Second)
	writeTO := timeoutOr(s.cfg.WriteTimeout, 30*time.Second)
	for {
		if s.draining.Load() {
			return // an implicit abort of any open transaction
		}
		rawOp, rawFields, err := readRequest(s, conn, s.cfg.maxFrame(), readTO)
		if err != nil {
			var we *wire.WireError
			if errors.As(err, &we) {
				// Protocol violation: report it, then close — the stream
				// is not trustworthy past a framing error.
				s.logf("server: %v: %v", conn.RemoteAddr(), we)
				if writeTO > 0 {
					conn.SetWriteDeadline(time.Now().Add(writeTO))
				}
				wire.WriteFrame(conn, s.cfg.maxFrame(), wire.OpError, wire.ErrorFields(we)...)
			}
			return
		}
		// Trace extraction happens before dispatch so every handler sees
		// the base opcode. A traced frame with a malformed trace field is a
		// protocol violation like any other framing error.
		op, trace, fields, traced, terr := wire.SplitTrace(rawOp, rawFields)
		if terr != nil {
			var we *wire.WireError
			errors.As(terr, &we)
			s.logf("server: %v: %v", conn.RemoteAddr(), we)
			if writeTO > 0 {
				conn.SetWriteDeadline(time.Now().Add(writeTO))
			}
			wire.WriteFrame(conn, s.cfg.maxFrame(), wire.OpError, wire.ErrorFields(we)...)
			return
		}
		pol, _ := wire.Policy(op)
		// REPLICATE consumes the connection: it becomes a one-way stream of
		// REPDATA/REPHEARTBEAT frames until the peer hangs up or we drain.
		// Trace IDs are per-request and do not apply to a stream.
		if pol.Stream {
			s.streamReplicate(conn, fields, writeTO)
			return
		}
		began := time.Now()
		// Head sampling: the wire trace ID (or a server-minted one when
		// the client did not stamp) decides whether this request records
		// a span tree. The monitor opcodes are never traced — HEALTH
		// polls every second on a replica set and TRACES would trace its
		// own fetch; their span trees are noise that would churn the ring.
		var tr *rtrace.Trace
		if s.traces != nil && !pol.Monitor {
			id := trace
			if id == 0 {
				id = rtrace.NextID()
			}
			if s.sampler.Sample(id) {
				tr = rtrace.New(id, wire.OpName(op))
			}
		}
		sess.tr = tr
		var respOp byte
		var respFields [][]byte
		// Admission control: a request past the in-flight cap is shed here
		// — typed refusal with a backoff hint, nothing executed, nothing
		// queued — so overload cannot grow the server's memory or wedge
		// its handlers. Monitor opcodes bypass the gate (and are not
		// counted).
		if pol.Monitor {
			respOp, respFields = s.handle(sess, op, fields)
		} else if s.admit() {
			respOp, respFields = s.handle(sess, op, fields)
			s.m.inflight.Add(-1)
		} else {
			s.m.shed.Inc()
			respOp, respFields = errResp(&wire.WireError{
				Code:       wire.CodeOverloaded,
				Msg:        "server overloaded: in-flight request cap reached",
				RetryAfter: s.cfg.retryAfterHint(),
			})
		}
		sess.tr = nil
		frame, err := appendResponse(s.cfg.maxFrame(), respOp, respFields, traced, trace)
		if err != nil {
			// The response does not fit a frame. Encoding failed before
			// any byte was written, so the connection is still in step:
			// answer a typed error on it instead of dropping it (a dropped
			// connection reads as lost, and the client would run the
			// query again only to hit the same limit).
			var we *wire.WireError
			if !errors.As(err, &we) {
				return
			}
			respOp, respFields = errResp(&wire.WireError{Code: wire.CodeTooLarge, Msg: "response: " + we.Msg})
			if frame, err = appendResponse(s.cfg.maxFrame(), respOp, respFields, traced, trace); err != nil {
				return
			}
		}
		dur := time.Since(began)
		// The latency exemplar is the sampled trace's ID when there is
		// one (its span tree is in the ring), else the raw wire trace (an
		// unsampled but stamped request is still findable client-side).
		exemplar := tr.ID()
		if exemplar == 0 {
			exemplar = trace
		}
		s.m.observe(op, dur, respOp, respFields, exemplar)
		if s.slow != nil && dur >= s.slow.Threshold() {
			respBytes := 0
			for _, f := range respFields {
				respBytes += len(f)
			}
			var errCode string
			if respOp == wire.OpError && len(respFields) > 0 && len(respFields[0]) == 1 {
				errCode = wire.Code(respFields[0][0]).String()
			}
			s.slow.Record(telemetry.SlowOp{
				Time:     began,
				Op:       wire.OpName(op),
				Duration: dur,
				Session:  conn.RemoteAddr().String(),
				Trace:    exemplar,
				Bytes:    respBytes,
				Err:      errCode,
			})
		}
		if tr != nil {
			tr.Finish()
			// A request slow enough for the slow-op ring has its span
			// tree force-retained: the trace that explains a slow op must
			// survive ring churn until an operator fetches it.
			forced := s.slow != nil && dur >= s.slow.Threshold()
			s.traces.Record(tr.Data(), forced)
		}
		if writeTO > 0 {
			conn.SetWriteDeadline(time.Now().Add(writeTO))
		}
		if _, err := conn.Write(frame); err != nil {
			return
		}
		if writeTO > 0 {
			conn.SetWriteDeadline(time.Time{})
		}
	}
}

// appendResponse encodes one response frame. A traced request has its
// trace echoed so the client can tie the response to its call; see
// docs/OBSERVABILITY.md.
func appendResponse(max int, op byte, fields [][]byte, traced bool, trace uint64) ([]byte, error) {
	if traced {
		return wire.AppendTracedFrame(nil, max, op, trace, fields...)
	}
	return wire.AppendFrame(nil, max, op, fields...)
}

// admit claims an in-flight slot, reporting false (shed) when the cap is
// reached. The caller must release the slot with m.inflight.Add(-1) once
// the response is produced. The in-flight gauge doubles as the admission
// counter — Gauge.Add returns the post-increment value, exactly like the
// bare atomic it replaced.
func (s *Server) admit() bool {
	n := s.m.inflight.Add(1)
	if cap := s.cfg.maxInFlight(); cap > 0 && n > cap {
		s.m.inflight.Add(-1)
		return false
	}
	return true
}

// readRequest reads one request frame. The wait for the header may block
// indefinitely (idle connection; Shutdown interrupts it via read
// deadline); once the header has arrived the remainder must land within
// bodyTimeout.
func readRequest(s *Server, conn net.Conn, max int, bodyTimeout time.Duration) (byte, [][]byte, error) {
	conn.SetReadDeadline(time.Time{})
	// Re-check draining after clearing the deadline: Shutdown may have set
	// its wake-up deadline between our caller's check and the clear above,
	// and it must not be lost or this connection idles until force-close.
	if s.draining.Load() {
		conn.SetReadDeadline(time.Now())
	}
	r := &deadlineReader{conn: conn, bodyTimeout: bodyTimeout}
	return wire.ReadFrame(r, max)
}

// deadlineReader arms the body deadline after the first successful read
// (the frame header), bounding how long a half-sent request can hold the
// session.
type deadlineReader struct {
	conn        net.Conn
	bodyTimeout time.Duration
	started     bool
}

func (d *deadlineReader) Read(p []byte) (int, error) {
	n, err := d.conn.Read(p)
	if err == nil && !d.started && d.bodyTimeout > 0 {
		d.started = true
		d.conn.SetReadDeadline(time.Now().Add(d.bodyTimeout))
	}
	return n, err
}

// handle dispatches one request and returns the response frame. All
// failures become OpError frames; a handler panic is confined to the
// request that caused it.
func (s *Server) handle(sess *session, op byte, fields [][]byte) (respOp byte, respFields [][]byte) {
	defer func() {
		if r := recover(); r != nil {
			s.logf("server: panic handling op %#x: %v", op, r)
			respOp = wire.OpError
			respFields = wire.ErrorFields(&wire.WireError{Code: wire.CodeInternal, Msg: fmt.Sprint(r)})
		}
	}()
	pol, known := wire.Policy(op)
	// Monitor opcodes answer before the drain check: a server that is
	// shutting down (or poisoned) reports its state instead of only
	// refusing work.
	if !pol.Monitor {
		if s.draining.Load() {
			return errResp(&wire.WireError{Code: wire.CodeShutdown, Msg: "server is draining"})
		}
		// A non-primary refuses every mutation by role — distinct from
		// CodeDegraded (this server is healthy) and never retryable
		// against this server. A follower answers CodeReadOnly naming its
		// upstream; a fenced ex-primary answers CodeFenced naming its
		// successor, so a misdirected client can re-aim. PROMOTE is
		// deliberately not a role-refused write: a follower is exactly
		// what gets promoted.
		if r := wire.Role(s.role.Load()); r != wire.RolePrimary && pol.RoleWrite {
			return errResp(s.refuseWrite(r))
		}
	}
	if known {
		if err := pol.CheckArity(len(fields)); err != nil {
			return errResp(toWireError(err))
		}
	}
	switch op {
	case wire.OpHealth:
		return s.handleHealth()
	case wire.OpStats:
		return s.handleStats()
	case wire.OpTraces:
		return s.handleTraces()
	case wire.OpPing:
		return wire.OpOK, nil
	case wire.OpGet:
		return s.handleGet(sess, fields)
	case wire.OpPut:
		return s.handlePut(sess, fields)
	case wire.OpDelete:
		return s.handleDelete(sess, fields)
	case wire.OpJoin:
		return s.handleJoin(sess, fields)
	case wire.OpBegin:
		if sess.inTxn {
			return errResp(&wire.WireError{Code: wire.CodeTxn, Msg: "BEGIN inside a transaction"})
		}
		sess.inTxn = true
		sess.base = s.state.Load()
		sess.ops = nil
		sess.overlay = map[string]int{}
		return wire.OpOK, nil
	case wire.OpCommit:
		if !sess.inTxn {
			return errResp(&wire.WireError{Code: wire.CodeTxn, Msg: "COMMIT outside a transaction"})
		}
		var key string
		if len(fields) == 1 {
			key = string(fields[0])
		}
		ops := sess.ops
		sess.endTxn()
		if _, err := s.commit(ops, key, sess.tr); err != nil {
			return errResp(toWireError(err))
		}
		return wire.OpOK, nil
	case wire.OpAbort:
		if !sess.inTxn {
			return errResp(&wire.WireError{Code: wire.CodeTxn, Msg: "ABORT outside a transaction"})
		}
		sess.endTxn()
		return wire.OpOK, nil
	case wire.OpNames:
		names := sess.viewNames(s)
		out := make([][]byte, len(names))
		for i, n := range names {
			out[i] = []byte(n)
		}
		return wire.OpOK, out
	case wire.OpCreateIndex:
		return s.handleCreateIndex(sess, fields)
	case wire.OpDropIndex:
		return s.handleDropIndex(sess, fields)
	case wire.OpExplain:
		return s.handleExplain(fields)
	case wire.OpPromote:
		return s.handlePromote(fields)
	default:
		return errResp(&wire.WireError{Code: wire.CodeUnknownOp, Msg: fmt.Sprintf("opcode %#x", op)})
	}
}

func (sess *session) endTxn() {
	sess.inTxn = false
	sess.base = nil
	sess.ops = nil
	sess.overlay = nil
}

func errResp(we *wire.WireError) (byte, [][]byte) {
	return wire.OpError, wire.ErrorFields(we)
}

// refuseWrite builds the role-gated write refusal: CodeReadOnly for a
// follower (naming the upstream primary), CodeFenced for a demoted
// primary (naming its successor when known). Used both at dispatch and
// at the commit decision under commitMu, so a write admitted before a
// fence cannot be acked after it.
func (s *Server) refuseWrite(r wire.Role) *wire.WireError {
	if r == wire.RoleFenced {
		s.m.fencedRefusals.Inc()
		msg := "fenced: a primary with a higher promotion epoch exists; writes refused"
		if p := s.fencedBy.Load(); p != nil && *p != "" {
			msg = fmt.Sprintf("fenced: the primary is now %s (higher promotion epoch); writes must go there", *p)
		}
		return &wire.WireError{Code: wire.CodeFenced, Msg: msg}
	}
	s.m.replReadOnly.Inc()
	return &wire.WireError{Code: wire.CodeReadOnly,
		Msg: fmt.Sprintf("read-only replication follower of %s; writes must go to the primary", s.cfg.Follow)}
}

// toWireError folds any server-side failure into the wire taxonomy,
// preserving the message so the remote diagnosis matches the local one.
func toWireError(err error) *wire.WireError {
	var we *wire.WireError
	if errors.As(err, &we) {
		return we
	}
	code := wire.CodeInternal
	switch {
	case errors.Is(err, intrinsic.ErrNoRoot):
		code = wire.CodeNoRoot
	case errors.Is(err, intrinsic.ErrNotConforming):
		code = wire.CodeNotConforming
	case errors.Is(err, intrinsic.ErrInconsistent), errors.Is(err, intrinsic.ErrMigrationRequired):
		code = wire.CodeInconsistent
	case errors.Is(err, intrinsic.ErrCorrupt):
		code = wire.CodeCorrupt
	case errors.Is(err, iofault.ErrIOFailed), errors.Is(err, intrinsic.ErrPoisoned):
		code = wire.CodeIO
	case errors.Is(err, intrinsic.ErrClosed):
		code = wire.CodeShutdown
	case errors.Is(err, intrinsic.ErrReplica):
		code = wire.CodeReadOnly
	case errors.Is(err, intrinsic.ErrBadOffset), errors.Is(err, intrinsic.ErrUnverified),
		errors.Is(err, intrinsic.ErrBadGroup):
		code = wire.CodeBadRequest
	case errors.Is(err, codec.ErrCorrupt), errors.Is(err, codec.ErrBadMagic),
		errors.Is(err, codec.ErrBadVersion), errors.Is(err, codec.ErrLimitExceeded),
		errors.Is(err, codec.ErrUnsupported):
		code = wire.CodeBadRequest
	}
	return &wire.WireError{Code: code, Msg: err.Error()}
}

// badReq shortens the common decode-failure response.
func badReq(format string, args ...any) (byte, [][]byte) {
	return errResp(&wire.WireError{Code: wire.CodeBadRequest, Msg: fmt.Sprintf(format, args...)})
}

// ---------------------------------------------------------------------------
// Reads: GET, JOIN, NAMES
// ---------------------------------------------------------------------------

func (s *Server) handleGet(sess *session, fields [][]byte) (byte, [][]byte) {
	t, err := wire.UnmarshalType(fields[0])
	if err != nil {
		return errResp(toWireError(err))
	}
	var dyns []*dynamic.Dynamic
	if sess.inTxn {
		dyns = sess.getOverlay(t)
	} else {
		// The lock-free hot path: one atomic load, then the planner-chosen
		// physical path against that snapshot.
		dyns = s.plannedGet(sess.tr, s.state.Load(), t)
	}
	out := make([][]byte, len(dyns))
	for i, d := range dyns {
		img, err := codec.MarshalTagged(d.Value(), d.Type())
		if err != nil {
			return errResp(toWireError(err))
		}
		out[i] = img
	}
	return wire.OpValues, out
}

// planInput sizes one GET for the planner: the snapshot's member and
// extent counts, plus — when the requested type is a record — the
// declared index on one of its fields with the fewest candidates. All
// O(fields) map lookups, no data touched.
func planInput(st *state, want *types.Interned) plan.GetInput {
	in := plan.GetInput{N: st.idx.Len(), Types: st.idx.Types()}
	if rt, ok := want.Type().(*types.Record); ok {
		for _, fld := range rt.Fields() {
			if c, ok := st.idx.CandidateCount(fld.Label); ok {
				if in.Field == "" || c < in.Candidates {
					in.Field, in.Candidates = fld.Label, c
				}
			}
		}
	}
	return in
}

// plannedGet executes one non-transactional GET through the cost-chosen
// physical path. Both paths return the same members in insertion order
// (the plan/index property tests); the choice only affects time, and the
// observed time feeds back into the model.
func (s *Server) plannedGet(tr *rtrace.Trace, st *state, t types.Type) []*dynamic.Dynamic {
	want := types.Intern(t)
	psp := tr.Start(0, "plan")
	p := s.planModel.PlanGet(planInput(st, want))
	tr.End(psp)
	s.m.planChosen[p.Path].Inc()
	esp := tr.Start(0, "exec:"+p.Path.String())
	began := time.Now()
	var dyns []*dynamic.Dynamic
	items := 0
	switch p.Path {
	case plan.PathExtent:
		entries, _ := st.idx.GetEntries(want)
		items = len(entries)
		dyns = make([]*dynamic.Dynamic, len(entries))
		for i, e := range entries {
			dyns[i] = e.Dyn
		}
	case plan.PathIndex:
		cands, _ := st.idx.Candidates(p.Field)
		items = len(cands)
		for _, e := range cands {
			if types.SubtypeInterned(e.Dyn.Interned(), want) {
				dyns = append(dyns, e.Dyn)
			}
		}
	}
	tr.End(esp)
	s.planModel.Observe(p.Path, time.Since(began), items, len(dyns), p.N)
	return dyns
}

// extentValues is Get[t] over the snapshot's maintained extents, as
// values in insertion order: the inputs of JOIN and EXPLAIN JOIN.
func extentValues(st *state, t types.Type) []value.Value {
	entries, _ := st.idx.GetEntries(types.Intern(t))
	vals := make([]value.Value, len(entries))
	for i, e := range entries {
		vals[i] = e.Dyn.Value()
	}
	return vals
}

// getOverlay is GET inside a transaction: the pinned snapshot with the
// session's buffered writes overlaid (read-your-writes). Results are in
// name order; only the lock-free non-transactional path promises the
// database's insertion order.
func (sess *session) getOverlay(t types.Type) []*dynamic.Dynamic {
	want := types.Intern(t)
	var out []*dynamic.Dynamic
	for _, nd := range sess.viewBindings() {
		if nd.dyn.IsInterned(want) {
			out = append(out, nd.dyn)
		}
	}
	return out
}

type namedDyn struct {
	name string
	dyn  *dynamic.Dynamic
}

// viewBindings materializes the session's transactional view in name
// order.
func (sess *session) viewBindings() []namedDyn {
	names := make([]string, 0, len(sess.base.roots)+len(sess.overlay))
	for n := range sess.base.roots {
		if _, shadowed := sess.overlay[n]; !shadowed {
			names = append(names, n)
		}
	}
	for n := range sess.overlay {
		names = append(names, n)
	}
	sort.Strings(names)
	out := make([]namedDyn, 0, len(names))
	for _, n := range names {
		if i, ok := sess.overlay[n]; ok {
			if op := sess.ops[i]; !op.del {
				out = append(out, namedDyn{name: n, dyn: op.dyn})
			}
			continue
		}
		out = append(out, namedDyn{name: n, dyn: sess.base.roots[n]})
	}
	return out
}

// viewNames lists the root names visible to the session.
func (sess *session) viewNames(s *Server) []string {
	if sess.inTxn {
		bs := sess.viewBindings()
		names := make([]string, len(bs))
		for i, b := range bs {
			names[i] = b.name
		}
		return names
	}
	st := s.state.Load()
	names := make([]string, 0, len(st.roots))
	for n := range st.roots {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

func (s *Server) handleJoin(sess *session, fields [][]byte) (byte, [][]byte) {
	t1, err := wire.UnmarshalType(fields[0])
	if err != nil {
		return errResp(toWireError(err))
	}
	t2, err := wire.UnmarshalType(fields[1])
	if err != nil {
		return errResp(toWireError(err))
	}
	var vals1, vals2 []value.Value
	if sess.inTxn {
		for _, d := range sess.getOverlay(t1) {
			vals1 = append(vals1, d.Value())
		}
		for _, d := range sess.getOverlay(t2) {
			vals2 = append(vals2, d.Value())
		}
	} else {
		st := s.state.Load()
		vals1 = extentValues(st, t1)
		vals2 = extentValues(st, t2)
	}
	r1, r2 := relation.New(vals1...), relation.New(vals2...)
	jp := relation.PlanJoin(r1, r2)
	if jp.Partition {
		s.m.joinPartition.Inc()
	} else {
		s.m.joinNested.Inc()
	}
	joined := relation.JoinPlanned(r1, r2, jp)
	members := joined.Members()
	out := make([][]byte, len(members))
	for i, m := range members {
		img, err := codec.MarshalTagged(m, nil)
		if err != nil {
			return errResp(toWireError(err))
		}
		out[i] = img
	}
	return wire.OpValues, out
}

// ---------------------------------------------------------------------------
// Writes: PUT, DELETE, commit
// ---------------------------------------------------------------------------

func (s *Server) handlePut(sess *session, fields [][]byte) (byte, [][]byte) {
	name := string(fields[0])
	if name == "" {
		return badReq("PUT with empty root name")
	}
	v, t, err := codec.UnmarshalTagged(fields[1])
	if err != nil {
		return errResp(toWireError(err))
	}
	d, err := dynamic.MakeAt(v, t)
	if err != nil {
		return errResp(&wire.WireError{Code: wire.CodeNotConforming, Msg: err.Error()})
	}
	op := txnOp{name: name, dyn: d}
	if sess.inTxn {
		sess.buffer(op)
		return wire.OpOK, nil
	}
	var key string
	if len(fields) == 3 {
		key = string(fields[2])
	}
	if _, err := s.commit([]txnOp{op}, key, sess.tr); err != nil {
		return errResp(toWireError(err))
	}
	return wire.OpOK, nil
}

func (s *Server) handleDelete(sess *session, fields [][]byte) (byte, [][]byte) {
	name := string(fields[0])
	op := txnOp{name: name, del: true}
	if sess.inTxn {
		existed := false
		if i, ok := sess.overlay[name]; ok {
			existed = !sess.ops[i].del
		} else {
			_, existed = sess.base.roots[name]
		}
		sess.buffer(op)
		return wire.OpOK, [][]byte{boolField(existed)}
	}
	var key string
	if len(fields) == 2 {
		key = string(fields[1])
	}
	existed, err := s.commit([]txnOp{op}, key, sess.tr)
	if err != nil {
		return errResp(toWireError(err))
	}
	return wire.OpOK, [][]byte{boolField(existed[0])}
}

// ---------------------------------------------------------------------------
// Index administration: CREATEINDEX, DROPINDEX, EXPLAIN
// ---------------------------------------------------------------------------

// handleCreateIndex declares a field-value index and backfills it from
// the committed membership. The *definition* is durable (an 'X' record in
// the commit group); the contents rebuild from the roots on every open.
// Refused inside a transaction — index DDL is not transactional.
func (s *Server) handleCreateIndex(sess *session, fields [][]byte) (byte, [][]byte) {
	field := string(fields[0])
	if field == "" {
		return badReq("CREATEINDEX with empty field name")
	}
	if sess.inTxn {
		return errResp(&wire.WireError{Code: wire.CodeTxn, Msg: "CREATEINDEX inside a transaction"})
	}
	var key string
	if len(fields) == 2 {
		key = string(fields[1])
	}
	created, err := s.alterIndex(field, true, key)
	if err != nil {
		return errResp(toWireError(err))
	}
	return wire.OpOK, [][]byte{boolField(created)}
}

// handleDropIndex removes a field-value index declaration; the response
// reports whether it existed.
func (s *Server) handleDropIndex(sess *session, fields [][]byte) (byte, [][]byte) {
	field := string(fields[0])
	if field == "" {
		return badReq("DROPINDEX with empty field name")
	}
	if sess.inTxn {
		return errResp(&wire.WireError{Code: wire.CodeTxn, Msg: "DROPINDEX inside a transaction"})
	}
	var key string
	if len(fields) == 2 {
		key = string(fields[1])
	}
	existed, err := s.alterIndex(field, false, key)
	if err != nil {
		return errResp(toWireError(err))
	}
	return wire.OpOK, [][]byte{boolField(existed)}
}

// alterIndex is the index-DDL commit path: like the committer, it
// serializes under commitMu, refuses on a poisoned write path,
// deduplicates retries through the idempotency cache, makes the
// definition change durable in its own commit group, and only then
// publishes the successor state (same roots, the index set advanced). On
// store failure the log replay in rollback() also reverts the definition
// — defs reload from the log — so memory and disk cannot diverge. Reports
// whether anything changed (created / existed).
func (s *Server) alterIndex(field string, create bool, key string) (bool, error) {
	began := time.Now()
	s.commitMu.Lock()
	defer s.commitMu.Unlock()
	if s.poisoned != nil {
		s.m.degraded.Inc()
		return false, &wire.WireError{Code: wire.CodeDegraded, Msg: s.poisoned.Error()}
	}
	if r := wire.Role(s.role.Load()); r != wire.RolePrimary {
		return false, s.refuseWrite(r)
	}
	if key != "" {
		if res, ok := s.idem.get(key); ok {
			s.m.idemHits.Inc()
			return len(res) == 1 && res[0], nil
		}
	}
	var changed bool
	if create {
		changed = s.store.DeclareIndex(field)
	} else {
		changed = s.store.DropIndexDef(field)
	}
	if changed {
		if _, err := s.store.Commit(); err != nil {
			s.rollback(err)
			return false, err
		}
		cur := s.state.Load()
		next := &state{roots: cur.roots}
		if create {
			next.idx = cur.idx.WithField(index.Def{Field: field})
		} else {
			next.idx, _ = cur.idx.DropField(field)
		}
		s.state.Store(next)
		s.notifyCommit()
		s.m.commits.Inc()
		s.m.commitSeconds.ObserveDuration(time.Since(began))
		s.m.commitOps.Observe(1)
	}
	if key != "" {
		s.idem.put(key, []bool{changed})
	}
	return changed, nil
}

// handleExplain is the EXPLAIN opcode: one type field renders the GET
// plan the server would choose right now, two render the JOIN plan. Pure
// read — nothing executes, nothing is counted as a planner decision.
func (s *Server) handleExplain(fields [][]byte) (byte, [][]byte) {
	st := s.state.Load()
	t1, err := wire.UnmarshalType(fields[0])
	if err != nil {
		return errResp(toWireError(err))
	}
	if len(fields) == 1 {
		p := s.planModel.PlanGet(planInput(st, types.Intern(t1)))
		return wire.OpOK, [][]byte{[]byte(p.String())}
	}
	t2, err := wire.UnmarshalType(fields[1])
	if err != nil {
		return errResp(toWireError(err))
	}
	r1 := relation.New(extentValues(st, t1)...)
	r2 := relation.New(extentValues(st, t2)...)
	return wire.OpOK, [][]byte{[]byte(relation.PlanJoin(r1, r2).String())}
}

func boolField(b bool) []byte {
	if b {
		return []byte{1}
	}
	return []byte{0}
}

func (sess *session) buffer(op txnOp) {
	sess.ops = append(sess.ops, op)
	sess.overlay[op.name] = len(sess.ops) - 1
}

// commit turns ops into one durable commit group and publishes the
// successor state, reporting per-op whether each name existed in the
// committed state the group was applied to (computed by the committer, so
// concurrent DELETEs of one name see exactly one existed=true). Writers
// queue for the committer goroutine, the one commit pipeline of every
// durability mode (coalesce.go); readers never block. On store failure
// the log is replayed back to the last durable group and the published
// state is untouched, so a GET during or after a failed commit still
// observes only committed roots.
//
// key, when non-empty, is the client's idempotency key: if the group was
// already applied (the acknowledgement was lost and the client retried),
// the recorded result is returned without touching the store, so a retry
// applies exactly once. Only durable applications are recorded — a failed
// commit's retry re-executes.
func (s *Server) commit(ops []txnOp, key string, tr *rtrace.Trace) ([]bool, error) {
	if len(ops) == 0 {
		return nil, nil
	}
	sp := tr.Start(0, "commit")
	req := &commitReq{ops: ops, key: key, enqueued: time.Now(),
		tr: tr, sp: sp, done: make(chan commitResult, 1)}
	s.commitCh <- req
	res := <-req.done
	tr.End(sp)
	return res.existed, res.err
}

// rollback reverts a failed commit by replaying the log: in-memory store
// state returns to the last durable commit, which is exactly the published
// state. If the replay itself fails (plausibly the same failing disk), the
// store's roots no longer match the published ones and the next successful
// commit group would durably drop committed roots — so the write path is
// poisoned instead: commit and Shutdown's final group refuse with the
// rollback failure until the process restarts. The caller holds commitMu.
func (s *Server) rollback(cause error) {
	if aerr := s.store.Abort(); aerr != nil {
		s.poisoned = fmt.Errorf("server: write path poisoned (rollback after %v failed): %w", cause, aerr)
		s.degraded.Store(true)
		s.logf("%v", s.poisoned)
	}
}

// ---------------------------------------------------------------------------
// Failover: PROMOTE, fencing
// ---------------------------------------------------------------------------

// handlePromote is the PROMOTE opcode's two faces. With no fields it is
// the admin promotion: this server (typically a follower whose primary
// died) bumps its epoch durably and becomes the primary; gated by
// Config.AllowPromote. With fence fields it is the notification a new
// primary sends its predecessor: a higher epoch exists at newPrimary —
// demote yourself. Fence notifications are always accepted (refusing to
// learn of a higher epoch would defeat fencing); stale ones are refused.
func (s *Server) handlePromote(fields [][]byte) (byte, [][]byte) {
	epoch, newPrimary, fence, err := wire.DecodePromote(fields)
	if err != nil {
		return errResp(toWireError(err))
	}
	if fence {
		return s.handleFence(epoch, newPrimary)
	}
	if !s.cfg.AllowPromote {
		return errResp(&wire.WireError{Code: wire.CodeBadRequest,
			Msg: "promotion is disabled on this server; start it with -allow-promote"})
	}
	newEpoch, err := s.promote()
	if err != nil {
		return errResp(toWireError(err))
	}
	return wire.OpOK, [][]byte{binary.AppendUvarint(nil, newEpoch)}
}

// promote makes this server the primary: stop following, bump the epoch
// durably (the store refuses while a commit batch is staged), flip the
// role, and tell the old upstream it has been superseded. The epoch
// record is its own commit group, so chained followers receive the
// promotion through the ordinary stream.
func (s *Server) promote() (uint64, error) {
	// Stop the follow loop first, outside commitMu (it may be holding
	// commitMu in applyReplicated right now), so no replicated frame can
	// land after the epoch bump.
	s.stopFollow()
	s.commitMu.Lock()
	defer s.commitMu.Unlock()
	if s.poisoned != nil {
		s.m.degraded.Inc()
		return 0, &wire.WireError{Code: wire.CodeDegraded, Msg: s.poisoned.Error()}
	}
	wasPrimary := wire.Role(s.role.Load()) == wire.RolePrimary
	epoch, err := s.store.Promote()
	if err != nil {
		return 0, err
	}
	s.role.Store(int32(wire.RolePrimary))
	s.fencedBy.Store(nil)
	// The epoch record is a durable commit: wake streamers so followers
	// of *this* server learn the new epoch immediately.
	s.notifyCommit()
	s.m.commits.Inc()
	s.logf("server: promoted to primary at epoch %d", epoch)
	if s.cfg.Follow != "" && !wasPrimary {
		// Best effort, retried in the background: the demoted primary may
		// be dead or partitioned right now — that is usually why we were
		// promoted — but must learn of its successor the moment it is
		// reachable, even if it never re-subscribes.
		go s.sendFence(s.cfg.Follow, epoch)
	}
	return epoch, nil
}

// handleFence applies a fence notification: a new primary at a higher
// epoch exists. Stale notifications (epoch not above ours) are refused.
func (s *Server) handleFence(epoch uint64, newPrimary string) (byte, [][]byte) {
	s.commitMu.Lock()
	defer s.commitMu.Unlock()
	if epoch <= s.store.Epoch() {
		return errResp(&wire.WireError{Code: wire.CodeBadRequest,
			Msg: fmt.Sprintf("stale fence: epoch %d is not above local epoch %d", epoch, s.store.Epoch())})
	}
	s.fence(epoch, newPrimary)
	return wire.OpOK, nil
}

// fence demotes this server after observing promotion epoch e elsewhere:
// the role becomes RoleFenced and the store itself enters replica mode
// (defense in depth — even a code path that skipped the role check
// cannot append). Idempotent for non-primaries, which are already
// read-only; they still record the successor's address for redirects.
// Caller holds commitMu, so no write decided before the fence can be
// acked after it.
func (s *Server) fence(e uint64, newPrimary string) {
	if newPrimary != "" {
		s.fencedBy.Store(&newPrimary)
	}
	if wire.Role(s.role.Load()) != wire.RolePrimary {
		return
	}
	s.role.Store(int32(wire.RoleFenced))
	s.store.EnterReplica()
	s.logf("server: fenced: observed promotion epoch %d (local epoch %d); entering read-only mode", e, s.store.Epoch())
}

// observeEpoch fences this server when e is above the store's epoch —
// the path for epochs learned passively (a REPLICATE subscriber carrying
// a higher epoch) rather than via a fence notification. Reports whether
// a fence was applied.
func (s *Server) observeEpoch(e uint64, newPrimary string) bool {
	if e <= s.store.Epoch() {
		return false
	}
	s.commitMu.Lock()
	defer s.commitMu.Unlock()
	if e <= s.store.Epoch() {
		return false
	}
	s.fence(e, newPrimary)
	return true
}

// sendFence delivers the fence notification to the demoted primary,
// retrying with backoff until any response arrives (a response — even a
// refusal — proves delivery) or the server shuts down.
func (s *Server) sendFence(addr string, epoch uint64) {
	self := ""
	if a := s.Addr(); a != nil {
		self = a.String()
	}
	backoff := 100 * time.Millisecond
	for i := 0; i < 30; i++ {
		select {
		case <-s.shutdownCh:
			return
		default:
		}
		if err := s.fenceOnce(addr, epoch, self); err == nil {
			return
		}
		select {
		case <-time.After(backoff):
		case <-s.shutdownCh:
			return
		}
		if backoff *= 2; backoff > 2*time.Second {
			backoff = 2 * time.Second
		}
	}
}

// fenceOnce is one fence-notification attempt; only transport failures
// are errors (and retried by sendFence).
func (s *Server) fenceOnce(addr string, epoch uint64, self string) error {
	conn, err := net.DialTimeout("tcp", addr, 3*time.Second)
	if err != nil {
		return err
	}
	defer conn.Close()
	conn.SetDeadline(time.Now().Add(3 * time.Second))
	if err := wire.WriteFrame(conn, s.cfg.maxFrame(), wire.OpPromote, wire.FenceFields(epoch, self)...); err != nil {
		return err
	}
	_, _, err = wire.ReadFrame(bufio.NewReader(conn), s.cfg.maxFrame())
	return err
}

// handleHealth is the HEALTH opcode: the degraded-mode self-report. It
// touches no locks a wedged writer could hold — every field is an atomic
// or a derived gauge — so health stays answerable while a commit is stuck
// on a dying disk. All five fields come from one registry Snapshot, so
// the report is internally consistent: in-flight, session and root counts
// were captured at the same instant and cannot tear against each other
// the way per-field atomic loads could.
func (s *Server) handleHealth() (byte, [][]byte) {
	snap := s.m.reg.Snapshot()
	inflight, _ := snap.Gauge("dbpl_server_inflight")
	sessions, _ := snap.Gauge("dbpl_server_sessions")
	roots, _ := snap.Gauge("dbpl_server_roots")
	uptimeNS, _ := snap.Gauge("dbpl_server_uptime_ns")
	degraded, _ := snap.Gauge("dbpl_server_degraded")
	durableEnd, _ := snap.Gauge("dbpl_store_durable_end")
	ackedEnd, _ := snap.Gauge("dbpl_server_acked_end")
	readOnly, _ := snap.Gauge("dbpl_server_readonly")
	role, _ := snap.Gauge("dbpl_repl_role")
	epoch, _ := snap.Gauge("dbpl_server_epoch")
	return wire.OpOK, wire.HealthFields(wire.Health{
		Poisoned:   degraded != 0,
		ReadOnly:   readOnly != 0,
		InFlight:   int(inflight),
		Sessions:   int(sessions),
		Roots:      int(roots),
		Uptime:     time.Duration(uptimeNS),
		DurableEnd: durableEnd,
		AckedEnd:   ackedEnd,
		Role:       wire.Role(role),
		Epoch:      uint64(epoch),
	})
}

// handleStats is the STATS opcode: the full registry snapshot — server,
// persistence and any co-registered layer — as one binary-encoded field.
// Like HEALTH it takes no handler locks, bypasses admission control, and
// answers during a drain, so the observer keeps observing exactly when
// the server is at its most interesting.
func (s *Server) handleStats() (byte, [][]byte) {
	snap := s.m.reg.Snapshot()
	return wire.OpOK, [][]byte{snap.AppendBinary(nil)}
}

// handleTraces answers TRACES: one binary-encoded trace per response
// field, newest first. A server running with sampling off (or with no
// ring) answers OpOK with zero fields rather than an error — polling
// for traces is not a fault.
func (s *Server) handleTraces() (byte, [][]byte) {
	if s.traces == nil {
		return wire.OpOK, nil
	}
	ds := s.traces.Snapshot()
	out := make([][]byte, len(ds))
	for i := range ds {
		out[i] = ds[i].AppendBinary(nil)
	}
	return wire.OpOK, out
}

// Stats reports the server's current committed view, for tests and the
// serve verb's startup banner.
type Stats struct {
	Roots int
}

// Stats returns current statistics.
func (s *Server) Stats() Stats {
	return Stats{Roots: len(s.state.Load().roots)}
}
