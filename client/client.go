// Package client is the Go client for `dbpl serve` (internal/server): a
// connection-pooled, pipelining front end to the remote store.
//
// A Client multiplexes stateless requests (Get, Put, Delete, Join, Names,
// Ping) over a small fixed pool of connections. Each connection pipelines:
// concurrent callers write their frames back to back and a single reader
// goroutine matches responses to callers in FIFO order, so N in-flight
// requests cost one round trip, not N. Dead connections are redialed
// transparently on next use — a client survives a server restart and sees
// exactly the state the server recovered from its log.
//
// Transactions are session-scoped on the server, so Begin pins a dedicated
// connection: the *Session's Put/Delete buffer server-side until Commit
// makes them one durable commit group (Abort discards them). A Session's
// own Get sees its buffered writes; other clients never do.
//
// # Retries
//
// Every stateless call runs under the Options.RetryPolicy (on by default):
// dial failures, request deadlines, lost connections and CodeOverloaded
// load-shedding refusals are retried with exponential backoff, full
// jitter, and a total sleep budget. Reads (Get, Join, Names, Ping,
// Health) are idempotent and retried as-is; Put and Delete are stamped
// with a client-unique idempotency key that the server deduplicates in a
// bounded LRU of applied write ids, so a retry after a lost
// acknowledgement applies exactly once. See docs/RESILIENCE.md.
//
// Failures carry the server's taxonomy: errors returned by remote
// operations unwrap to the wire sentinels (wire.ErrNoRoot, wire.ErrTxn,
// wire.ErrRemoteCorrupt, ...) and remote I/O failures additionally to
// iofault.ErrIOFailed, so errors.Is against a remote store reads the same
// as against a local one.
package client

import (
	"bufio"
	crand "crypto/rand"
	"encoding/binary"
	"errors"
	"fmt"
	"math/rand"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"dbpl/internal/core"
	"dbpl/internal/persist/codec"
	"dbpl/internal/persist/iofault"
	"dbpl/internal/server/wire"
	"dbpl/internal/telemetry"
	"dbpl/internal/types"
	"dbpl/internal/value"
)

// Errors produced locally by the client.
var (
	ErrClosed   = errors.New("client: closed")
	ErrDeadline = errors.New("client: request deadline exceeded")
	ErrDone     = errors.New("client: session already finished")
	// ErrConnLost marks transport failures (a reset, an unexpected close,
	// a failed write): the connection died with the request in flight.
	// Idempotent and key-stamped requests are retried on it.
	ErrConnLost = errors.New("client: connection lost")
)

// The remote failure taxonomy, re-exported from the wire protocol
// (which lives under internal/) so programs outside this module can
// dispatch on remote failures with errors.Is.
var (
	ErrBadFrame = wire.ErrBadFrame
	// ErrTooLarge is a frame over the size limit. A server whose response
	// would exceed its frame limit answers with it and keeps the
	// connection; the query ran, and running it again would only hit the
	// same limit, so it is not retried.
	ErrTooLarge      = wire.ErrTooLarge
	ErrUnknownOp     = wire.ErrUnknownOp
	ErrBadRequest    = wire.ErrBadRequest
	ErrNoRoot        = wire.ErrNoRoot
	ErrNotConforming = wire.ErrNotConforming
	ErrInconsistent  = wire.ErrInconsistent
	ErrTxn           = wire.ErrTxn
	ErrRemoteIO      = wire.ErrRemoteIO
	ErrRemoteCorrupt = wire.ErrRemoteCorrupt
	ErrShutdown      = wire.ErrShutdown
	ErrInternal      = wire.ErrInternal
	// ErrOverloaded is admission control shedding the request; the retry
	// policy backs off (honoring the server's retry-after hint) and tries
	// again, so callers usually only see it once the budget is exhausted.
	ErrOverloaded = wire.ErrOverloaded
	// ErrDegraded is the server's degraded read-only mode: its write path
	// is poisoned and every write is refused until the process restarts,
	// while reads and Health keep working. Not retryable.
	ErrDegraded = wire.ErrDegraded
	// ErrReadOnly is a replication follower refusing a write: this server
	// never accepts writes, by role, and the refusal names the primary to
	// aim at. Never retryable against the same server — but with
	// Options.Replicas set it triggers failover: the client probes the
	// candidate set for the real primary and replays there.
	ErrReadOnly = wire.ErrReadOnly
	// ErrFenced is a demoted primary refusing a write: a newer primary
	// exists at a higher promotion epoch and this one is permanently
	// read-only (the refusal names its successor). With Options.Replicas
	// set the client fails over — it probes the candidate set for the
	// highest-epoch writable server, re-pins writes there, and replays
	// the in-flight request under its original idempotency key, so the
	// write applies exactly once even across the promotion.
	ErrFenced = wire.ErrFenced

	// ErrIOFailed is the persistence layer's I/O sentinel
	// (iofault.ErrIOFailed); a remote I/O failure unwraps to it too, so
	// one errors.Is covers local and served stores alike.
	ErrIOFailed = iofault.ErrIOFailed
)

// Health is the server's HEALTH self-report (wire.Health re-exported):
// poisoned flag, in-flight count, session count, root count, uptime.
type Health = wire.Health

// Options tunes a Client. The zero value is usable.
type Options struct {
	// PoolSize is the number of pooled connections for stateless
	// requests; 0 means 2. Sessions always dial their own.
	PoolSize int
	// MaxFrame bounds frames in both directions; 0 means wire.MaxFrame.
	MaxFrame int
	// DialTimeout bounds connection establishment; 0 means 5s.
	DialTimeout time.Duration
	// RequestTimeout is the per-request deadline, covering the write and
	// the wait for the response; 0 means 30s, negative disables. Under
	// the retry policy it bounds each *attempt*, not the whole call.
	RequestTimeout time.Duration
	// RetryPolicy governs transparent retries of failed requests. The
	// zero value is the documented default (retries ON: 4 attempts,
	// 25ms–1s exponential backoff with full jitter, 3s sleep budget);
	// set MaxAttempts to 1 (or negative) to disable retries.
	RetryPolicy RetryPolicy
	// Registry receives the client's metrics (attempts per opcode, retries
	// by cause, backoff sleep); nil means a fresh private registry,
	// readable via Telemetry().
	Registry *telemetry.Registry
	// Replicas lists read-only follower addresses. They do two jobs:
	// idempotent reads (Get, Join, Names, Explain*) fan out to caught-up
	// followers, and together with the dialed address they form the
	// *failover set* — when the primary is lost or fenced, the client
	// probes every candidate's HEALTH for the highest-epoch writable
	// server and re-pins writes there. Writes, transactions, Health and
	// Stats always go to the currently pinned primary. See
	// client/replicas.go and client/failover.go.
	Replicas []string
	// MaxReplicaLag is the staleness bound in log bytes: a replica whose
	// durable offset trails the primary's by more is left out of the read
	// rotation until it catches up. 0 means 1MiB; negative means
	// unlimited (read-your-writes pinning still applies).
	MaxReplicaLag int64
	// ReplicaProbe is the health-probe interval for replica rotation;
	// 0 means 1s.
	ReplicaProbe time.Duration
}

// RetryPolicy is exponential backoff with full jitter, capped by a total
// sleep budget. A request is retried when it failed in a way that cannot
// have half-happened or that is safe to repeat: dial errors, request
// deadlines, lost connections, and the server's CodeOverloaded
// load-shedding refusal (whose retry-after hint, when longer than the
// computed backoff, is honored instead). Reads are idempotent by nature;
// writes are made idempotent by the key the client stamps on them (the
// server deduplicates applied write ids), so both retry safely.
type RetryPolicy struct {
	// MaxAttempts is the total number of attempts per call, including
	// the first; 0 means 4, 1 or negative disables retries.
	MaxAttempts int
	// BaseDelay is the pre-jitter backoff before the first retry and
	// doubles per attempt; 0 means 25ms.
	BaseDelay time.Duration
	// MaxDelay caps the pre-jitter backoff; 0 means 1s.
	MaxDelay time.Duration
	// Budget caps the total time one call may spend sleeping between
	// attempts; a retry that would exceed it is not taken and the last
	// error returns. 0 means 3s, negative means unlimited.
	Budget time.Duration
}

func (p RetryPolicy) maxAttempts() int {
	if p.MaxAttempts == 0 {
		return 4
	}
	if p.MaxAttempts < 1 {
		return 1
	}
	return p.MaxAttempts
}

func (p RetryPolicy) baseDelay() time.Duration {
	if p.BaseDelay <= 0 {
		return 25 * time.Millisecond
	}
	return p.BaseDelay
}

func (p RetryPolicy) maxDelay() time.Duration {
	if p.MaxDelay <= 0 {
		return time.Second
	}
	return p.MaxDelay
}

func (p RetryPolicy) budget() time.Duration {
	if p.Budget == 0 {
		return 3 * time.Second
	}
	if p.Budget < 0 {
		return time.Duration(1<<63 - 1)
	}
	return p.Budget
}

// backoff computes the sleep before attempt (1-based retry index): full
// jitter over min(BaseDelay<<(attempt-1), MaxDelay).
func (p RetryPolicy) backoff(attempt int) time.Duration {
	d := p.baseDelay()
	for i := 1; i < attempt && d < p.maxDelay(); i++ {
		d *= 2
	}
	if d > p.maxDelay() {
		d = p.maxDelay()
	}
	return time.Duration(rand.Int63n(int64(d) + 1))
}

func (o Options) poolSize() int {
	if o.PoolSize <= 0 {
		return 2
	}
	return o.PoolSize
}

func (o Options) maxFrame() int {
	if o.MaxFrame <= 0 {
		return wire.MaxFrame
	}
	return o.MaxFrame
}

func (o Options) dialTimeout() time.Duration {
	if o.DialTimeout <= 0 {
		return 5 * time.Second
	}
	return o.DialTimeout
}

func (o Options) requestTimeout() time.Duration {
	if o.RequestTimeout == 0 {
		return 30 * time.Second
	}
	if o.RequestTimeout < 0 {
		return 0
	}
	return o.RequestTimeout
}

func (o Options) maxReplicaLag() int64 {
	if o.MaxReplicaLag == 0 {
		return 1 << 20
	}
	if o.MaxReplicaLag < 0 {
		return -1 // unlimited
	}
	return o.MaxReplicaLag
}

func (o Options) replicaProbe() time.Duration {
	if o.ReplicaProbe <= 0 {
		return time.Second
	}
	return o.ReplicaProbe
}

// Packed mirrors core.Packed: a remote object with the witness type it was
// stored at.
type Packed = core.Packed

// Client is a pooled connection to one dbpl server. It is safe for
// concurrent use.
type Client struct {
	// addr is the current write target, guarded by mu: failover re-pins
	// it to a newly promoted primary. origin is the address Dial was
	// given, immutable, and always part of the failover candidate set.
	addr   string
	origin string
	o      Options

	// id is the client-unique prefix of idempotency keys; seq the
	// per-client write counter completing them.
	id  [8]byte
	seq atomic.Uint64

	// m counts attempts, retries and backoff; see telemetry.go.
	m *clientMetrics

	mu     sync.Mutex
	pool   []*conn // fixed slots, lazily (re)dialed
	closed bool
	next   atomic.Uint64 // round-robin over the pool

	// writes is the read-your-writes stamp (see noteWrite); reps the
	// replica read rotation, nil without Options.Replicas.
	writes atomic.Uint64
	reps   *replicaSet
}

// Dial connects to a dbpl server, verifying liveness with a Ping.
func Dial(addr string, opts *Options) (*Client, error) {
	var o Options
	if opts != nil {
		o = *opts
	}
	c := &Client{addr: addr, origin: addr, o: o, pool: make([]*conn, o.poolSize())}
	reg := o.Registry
	if reg == nil {
		reg = telemetry.NewRegistry()
	}
	c.m = newClientMetrics(reg)
	if _, err := crand.Read(c.id[:]); err != nil {
		// A broken system entropy source: keys stay unique per process,
		// which is what the dedup window actually relies on.
		binary.BigEndian.PutUint64(c.id[:], uint64(time.Now().UnixNano()))
	}
	if err := c.Ping(); err != nil {
		c.Close()
		return nil, err
	}
	if len(o.Replicas) > 0 {
		c.reps = newReplicaSet(c, o.Replicas)
	}
	return c, nil
}

// nextKey stamps one write with a client-unique idempotency key: the
// 8-byte client id plus a monotone counter. The server remembers applied
// keys, so resending the same frame after a lost acknowledgement applies
// exactly once.
func (c *Client) nextKey() []byte {
	key := make([]byte, 16)
	copy(key, c.id[:])
	binary.BigEndian.PutUint64(key[8:], c.seq.Add(1))
	return key
}

// Close closes every pooled and replica connection. Sessions hold their
// own connections and must be finished separately.
func (c *Client) Close() error {
	if c.reps != nil {
		c.reps.close()
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	c.closed = true
	for i, cn := range c.pool {
		if cn != nil {
			cn.fail(ErrClosed)
			c.pool[i] = nil
		}
	}
	return nil
}

// primary returns the current write target: the dialed address, or the
// server failover last re-pinned writes to.
func (c *Client) primary() string {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.addr
}

// getConn returns a live pooled connection, redialing a dead slot.
func (c *Client) getConn() (*conn, error) {
	slot := int(c.next.Add(1)-1) % len(c.pool)
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return nil, ErrClosed
	}
	cn := c.pool[slot]
	if cn != nil && !cn.isDead() {
		c.mu.Unlock()
		return cn, nil
	}
	addr := c.addr
	c.mu.Unlock()
	// Dial outside the lock; racing callers may dial the same slot, the
	// loser's connection is closed.
	fresh, err := dialConn(addr, c.o)
	if err != nil {
		return nil, err
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed {
		fresh.fail(ErrClosed)
		return nil, ErrClosed
	}
	if c.addr != addr {
		// Failover re-pinned the primary while we were dialing the old
		// one: pooling this connection would route writes to a fenced
		// server. Drop it and let the retry loop dial the new address.
		fresh.fail(ErrConnLost)
		return nil, fmt.Errorf("%w: primary re-pinned to %s during dial", ErrConnLost, c.addr)
	}
	if cur := c.pool[slot]; cur != nil && !cur.isDead() {
		fresh.fail(ErrClosed)
		return cur, nil
	}
	c.pool[slot] = fresh
	return fresh, nil
}

func (c *Client) roundTrip(op byte, fields ...[]byte) (byte, [][]byte, error) {
	cn, err := c.getConn()
	if err != nil {
		return 0, nil, err
	}
	return cn.roundTrip(c.o.requestTimeout(), op, fields...)
}

// call is roundTrip under the retry policy. OpError responses are decoded
// here (rather than in expect) so the loop can classify them; the request
// must be idempotent or carry an idempotency key.
func (c *Client) call(op byte, fields ...[]byte) (byte, [][]byte, error) {
	pol := c.o.RetryPolicy
	budget := pol.budget()
	var slept time.Duration
	var lastErr error
	for attempt := 1; ; attempt++ {
		c.m.attempt(op)
		respOp, respFields, err := c.roundTrip(op, fields...)
		if err == nil && respOp == wire.OpError {
			err = wire.DecodeError(respFields)
		}
		if err == nil {
			return respOp, respFields, nil
		}
		// Failover: the primary is gone (lost connection, dial failure) or
		// refuses writes by role (fenced, demoted). With a failover set
		// configured, find the highest-epoch writable server and replay
		// there; the frame — including its idempotency key — is reused
		// verbatim, so the replayed write applies exactly once even if the
		// original reached the old primary's log. The replay skips the
		// backoff (the new primary is fresh evidence, not a guess) but
		// still counts against MaxAttempts.
		if attempt < pol.maxAttempts() && c.failoverEligible(err) && c.failover() {
			continue
		}
		if !retryable(err) || attempt >= pol.maxAttempts() {
			return 0, nil, err
		}
		lastErr = err
		d := pol.backoff(attempt)
		if hint := retryAfterOf(lastErr); hint > d {
			d = hint
		}
		if slept+d > budget {
			return 0, nil, lastErr
		}
		c.m.retry(lastErr)
		c.m.backoff(d)
		time.Sleep(d)
		slept += d
	}
}

// retryable classifies failures that are safe to repeat: the request
// never executed (dial failure, overload shed), or executed at most once
// with the outcome unknown (deadline, lost connection) — which idempotent
// and key-stamped requests tolerate. Application errors (no-root, txn,
// I/O, degraded, too-large, ...) report a definite outcome and are never
// retried.
func retryable(err error) bool {
	if errors.Is(err, ErrClosed) || errors.Is(err, ErrDone) {
		return false
	}
	// A follower's or fenced server's write refusal is permanent and by
	// role — unlike CodeOverloaded it cannot clear with time, so retrying
	// against the same server only burns the backoff budget. The typed
	// refusal names the primary; surface it immediately. (With a failover
	// set configured, call() handles these before consulting retryable:
	// the retry then goes to a *different* server.)
	if errors.Is(err, ErrReadOnly) || errors.Is(err, ErrFenced) {
		return false
	}
	if errors.Is(err, ErrOverloaded) || errors.Is(err, ErrDeadline) || errors.Is(err, ErrConnLost) {
		return true
	}
	var ne net.Error // dial timeouts, refused connections, resets
	return errors.As(err, &ne)
}

// retryAfterOf extracts the server's backoff hint, 0 when absent.
func retryAfterOf(err error) time.Duration {
	var we *wire.WireError
	if errors.As(err, &we) {
		return we.RetryAfter
	}
	return 0
}

// ---------------------------------------------------------------------------
// Stateless operations
// ---------------------------------------------------------------------------

// Ping checks server liveness.
func (c *Client) Ping() error {
	_, _, err := expect(wire.OpOK)(c.call(wire.OpPing))
	return err
}

// Health asks the server for its self-report: degraded (poisoned) flag,
// in-flight requests, sessions, committed roots, uptime. It is answered
// even by an overloaded or poisoned server.
func (c *Client) Health() (Health, error) {
	_, fields, err := expect(wire.OpOK)(c.call(wire.OpHealth))
	if err != nil {
		return Health{}, err
	}
	return wire.DecodeHealth(fields)
}

// Get is the paper's generic extraction, remotely: every root whose
// declared type is a subtype of t, packaged with its witness. With
// Options.Replicas it may be served by a caught-up follower.
func (c *Client) Get(t types.Type) ([]Packed, error) {
	return decodeGet(c.readCall(wire.OpGet, mustTypeField(t)))
}

// GetExpr is Get over the concrete type syntax, e.g. "{Name: String}".
func (c *Client) GetExpr(src string) ([]Packed, error) {
	t, err := types.Parse(src)
	if err != nil {
		return nil, err
	}
	return c.Get(t)
}

// Put binds name to v at the declared type (nil means v's most specific
// type) and commits it as one group. The frame carries an idempotency
// key, so a retry after a lost acknowledgement applies exactly once.
func (c *Client) Put(name string, v value.Value, declared types.Type) error {
	f, err := putFields(name, v, declared)
	if err != nil {
		return err
	}
	f = append(f, c.nextKey())
	defer c.noteWrite()
	_, _, err = expect(wire.OpOK)(c.call(wire.OpPut, f...))
	return err
}

// Delete unbinds name, reporting whether it existed. Like Put it is
// key-stamped: a retried DELETE reports the existed bit of its first
// application, not of the retry.
func (c *Client) Delete(name string) (bool, error) {
	defer c.noteWrite()
	return decodeDelete(c.call(wire.OpDelete, []byte(name), c.nextKey()))
}

// Join computes the generalized natural join (the paper's Figure 1) of
// the extents at t1 and t2, remotely.
func (c *Client) Join(t1, t2 types.Type) ([]value.Value, error) {
	ps, err := decodeGet(c.readCall(wire.OpJoin, mustTypeField(t1), mustTypeField(t2)))
	if err != nil {
		return nil, err
	}
	out := make([]value.Value, len(ps))
	for i, p := range ps {
		out[i] = p.Value
	}
	return out, nil
}

// CreateIndex declares a field-value index on a record label, reporting
// whether it was newly created (false: it already existed). The
// definition is durable; the index itself is maintained in memory and
// rebuilt from the committed roots on every server start. Key-stamped
// like every write, so a retry applies exactly once.
func (c *Client) CreateIndex(field string) (bool, error) {
	defer c.noteWrite()
	return decodeBool(c.call(wire.OpCreateIndex, []byte(field), c.nextKey()))
}

// DropIndex removes a field-value index declaration, reporting whether it
// existed. Key-stamped.
func (c *Client) DropIndex(field string) (bool, error) {
	defer c.noteWrite()
	return decodeBool(c.call(wire.OpDropIndex, []byte(field), c.nextKey()))
}

// ExplainGet renders the access-path plan the server would choose right
// now for a GET at t — the cost breakdown over scan, extent and index —
// without executing anything.
func (c *Client) ExplainGet(t types.Type) (string, error) {
	return decodeText(c.readCall(wire.OpExplain, mustTypeField(t)))
}

// ExplainJoin renders the join plan (nested-loop or build/probe
// partition) for joining the extents at t1 and t2.
func (c *Client) ExplainJoin(t1, t2 types.Type) (string, error) {
	return decodeText(c.readCall(wire.OpExplain, mustTypeField(t1), mustTypeField(t2)))
}

// Promote orders the server to take over as primary: it stops following
// its upstream, bumps the promotion epoch durably, and starts accepting
// writes. The new epoch is returned. The server must have been started
// with -allow-promote; a staged or poisoned server refuses. Deliberately
// a single attempt with no retries — promotion is an admin action whose
// replay would bump the epoch again, so a lost acknowledgement is left
// to the operator (probe Health for the role and epoch, then decide).
func (c *Client) Promote() (uint64, error) {
	c.m.attempt(wire.OpPromote)
	op, fields, err := c.roundTrip(wire.OpPromote)
	if err == nil && op == wire.OpError {
		err = wire.DecodeError(fields)
	}
	if err != nil {
		return 0, err
	}
	if op != wire.OpOK || len(fields) != 1 {
		return 0, &wire.WireError{Code: wire.CodeBadFrame, Msg: "malformed PROMOTE response"}
	}
	epoch, n := binary.Uvarint(fields[0])
	if n <= 0 {
		return 0, &wire.WireError{Code: wire.CodeBadFrame, Msg: "malformed PROMOTE epoch"}
	}
	return epoch, nil
}

// Names lists the root names.
func (c *Client) Names() ([]string, error) {
	_, fields, err := expect(wire.OpOK)(c.readCall(wire.OpNames))
	if err != nil {
		return nil, err
	}
	out := make([]string, len(fields))
	for i, f := range fields {
		out[i] = string(f)
	}
	return out, nil
}

// ---------------------------------------------------------------------------
// Sessions (server-side transactions)
// ---------------------------------------------------------------------------

// Session is one server-side transaction, pinned to its own connection.
// Finish it with Commit or Abort (Close aborts if neither happened).
type Session struct {
	c    *Client
	cn   *conn
	done bool
}

// Begin opens a transaction on a dedicated connection. Nothing has been
// buffered yet, so the whole dial+BEGIN is retried under the policy.
func (c *Client) Begin() (*Session, error) {
	pol := c.o.RetryPolicy
	budget := pol.budget()
	var slept time.Duration
	for attempt := 1; ; attempt++ {
		c.m.attempt(wire.OpBegin)
		s, err := c.begin()
		if err == nil {
			return s, nil
		}
		// Sessions fail over like stateless calls: nothing is buffered
		// before BEGIN succeeds, so redialing the new primary is free.
		if attempt < pol.maxAttempts() && c.failoverEligible(err) && c.failover() {
			continue
		}
		if !retryable(err) || attempt >= pol.maxAttempts() {
			return nil, err
		}
		d := pol.backoff(attempt)
		if hint := retryAfterOf(err); hint > d {
			d = hint
		}
		if slept+d > budget {
			return nil, err
		}
		c.m.retry(err)
		c.m.backoff(d)
		time.Sleep(d)
		slept += d
	}
}

func (c *Client) begin() (*Session, error) {
	cn, err := dialConn(c.primary(), c.o)
	if err != nil {
		return nil, err
	}
	op, fields, err := cn.roundTrip(c.o.requestTimeout(), wire.OpBegin)
	if err == nil && op == wire.OpError {
		err = wire.DecodeError(fields)
	}
	if err == nil && op != wire.OpOK {
		err = &wire.WireError{Code: wire.CodeBadFrame,
			Msg: fmt.Sprintf("unexpected response opcode %#x", op)}
	}
	if err != nil {
		cn.fail(ErrClosed)
		return nil, err
	}
	return &Session{c: c, cn: cn}, nil
}

func (s *Session) roundTrip(op byte, fields ...[]byte) (byte, [][]byte, error) {
	if s.done {
		return 0, nil, ErrDone
	}
	return s.cn.roundTrip(s.c.o.requestTimeout(), op, fields...)
}

// Get inside the session sees its own buffered writes overlaid on the
// snapshot pinned at Begin.
func (s *Session) Get(t types.Type) ([]Packed, error) {
	return decodeGet(s.roundTrip(wire.OpGet, mustTypeField(t)))
}

// Put buffers a binding in the transaction.
func (s *Session) Put(name string, v value.Value, declared types.Type) error {
	f, err := putFields(name, v, declared)
	if err != nil {
		return err
	}
	_, _, err = expect(wire.OpOK)(s.roundTrip(wire.OpPut, f...))
	return err
}

// Delete buffers an unbinding, reporting whether the name was bound in
// the session's view.
func (s *Session) Delete(name string) (bool, error) {
	return decodeDelete(s.roundTrip(wire.OpDelete, []byte(name)))
}

// Join runs the generalized join against the session's view.
func (s *Session) Join(t1, t2 types.Type) ([]value.Value, error) {
	ps, err := decodeGet(s.roundTrip(wire.OpJoin, mustTypeField(t1), mustTypeField(t2)))
	if err != nil {
		return nil, err
	}
	out := make([]value.Value, len(ps))
	for i, p := range ps {
		out[i] = p.Value
	}
	return out, nil
}

// Names lists the root names in the session's view.
func (s *Session) Names() ([]string, error) {
	_, fields, err := expect(wire.OpOK)(s.roundTrip(wire.OpNames))
	if err != nil {
		return nil, err
	}
	out := make([]string, len(fields))
	for i, f := range fields {
		out[i] = string(f)
	}
	return out, nil
}

// Commit makes the buffered writes one durable commit group and ends the
// session. The COMMIT frame is key-stamped and retried on overload sheds
// (the session connection is still alive then, so the buffered writes
// are too); a lost connection is not retryable — the server discards the
// transaction with the session, so there is nothing left to commit.
func (s *Session) Commit() error {
	if s.done {
		return ErrDone
	}
	defer s.c.noteWrite()
	key := s.c.nextKey()
	pol := s.c.o.RetryPolicy
	budget := pol.budget()
	var slept time.Duration
	var err error
	for attempt := 1; ; attempt++ {
		s.c.m.attempt(wire.OpCommit)
		_, _, err = expect(wire.OpOK)(s.roundTrip(wire.OpCommit, key))
		if err == nil || !errors.Is(err, ErrOverloaded) || attempt >= pol.maxAttempts() {
			break
		}
		d := pol.backoff(attempt)
		if hint := retryAfterOf(err); hint > d {
			d = hint
		}
		if slept+d > budget {
			break
		}
		s.c.m.retry(err)
		s.c.m.backoff(d)
		time.Sleep(d)
		slept += d
	}
	s.finish()
	return err
}

// Abort discards the buffered writes and ends the session.
func (s *Session) Abort() error {
	_, _, err := expect(wire.OpOK)(s.roundTrip(wire.OpAbort))
	s.finish()
	return err
}

// Close aborts the session if it is still open.
func (s *Session) Close() error {
	if s.done {
		return nil
	}
	return s.Abort()
}

func (s *Session) finish() {
	if !s.done {
		s.done = true
		s.cn.fail(ErrDone)
	}
}

// ---------------------------------------------------------------------------
// Request/response plumbing
// ---------------------------------------------------------------------------

func mustTypeField(t types.Type) []byte {
	b, err := wire.MarshalType(t)
	if err != nil {
		// Every types.Type the package can produce is encodable; an
		// unencodable one is a programming error surfaced loudly.
		panic(fmt.Sprintf("client: unencodable type %s: %v", t, err))
	}
	return b
}

func putFields(name string, v value.Value, declared types.Type) ([][]byte, error) {
	img, err := codec.MarshalTagged(v, declared)
	if err != nil {
		return nil, err
	}
	return [][]byte{[]byte(name), img}, nil
}

// expect checks the response opcode, decoding OpError frames into their
// *wire.WireError.
func expect(want byte) func(byte, [][]byte, error) (byte, [][]byte, error) {
	return func(op byte, fields [][]byte, err error) (byte, [][]byte, error) {
		if err != nil {
			return op, fields, err
		}
		if op == wire.OpError {
			return op, nil, wire.DecodeError(fields)
		}
		if op != want {
			return op, nil, &wire.WireError{Code: wire.CodeBadFrame,
				Msg: fmt.Sprintf("unexpected response opcode %#x", op)}
		}
		return op, fields, nil
	}
}

func decodeGet(op byte, fields [][]byte, err error) ([]Packed, error) {
	if _, fields, err = expect(wire.OpValues)(op, fields, err); err != nil {
		return nil, err
	}
	out := make([]Packed, len(fields))
	for i, f := range fields {
		v, t, err := codec.UnmarshalTagged(f)
		if err != nil {
			return nil, err
		}
		out[i] = Packed{Value: v, Witness: t}
	}
	return out, nil
}

func decodeDelete(op byte, fields [][]byte, err error) (bool, error) {
	if _, fields, err = expect(wire.OpOK)(op, fields, err); err != nil {
		return false, err
	}
	if len(fields) != 1 || len(fields[0]) != 1 {
		return false, &wire.WireError{Code: wire.CodeBadFrame, Msg: "malformed DELETE response"}
	}
	return fields[0][0] == 1, nil
}

// decodeBool decodes an OK response carrying one boolean field (the
// created/existed bit of the index opcodes).
func decodeBool(op byte, fields [][]byte, err error) (bool, error) {
	if _, fields, err = expect(wire.OpOK)(op, fields, err); err != nil {
		return false, err
	}
	if len(fields) != 1 || len(fields[0]) != 1 {
		return false, &wire.WireError{Code: wire.CodeBadFrame, Msg: "malformed boolean response"}
	}
	return fields[0][0] == 1, nil
}

// decodeText decodes an OK response carrying one text field (EXPLAIN).
func decodeText(op byte, fields [][]byte, err error) (string, error) {
	if _, fields, err = expect(wire.OpOK)(op, fields, err); err != nil {
		return "", err
	}
	if len(fields) != 1 {
		return "", &wire.WireError{Code: wire.CodeBadFrame, Msg: "malformed EXPLAIN response"}
	}
	return string(fields[0]), nil
}

// ---------------------------------------------------------------------------
// conn: one pipelining connection
// ---------------------------------------------------------------------------

type result struct {
	op     byte
	fields [][]byte
	err    error
}

// pendingSlot is one in-flight request awaiting its FIFO-matched
// response, and the trace ID it was stamped with so the reader can verify
// the server's echo.
type pendingSlot struct {
	ch    chan result
	trace uint64
}

// conn is a single connection with FIFO request pipelining: writers append
// a response slot and write their frame under wmu (so slot order equals
// frame order), and the reader goroutine delivers responses to slots in
// order.
type conn struct {
	nc       net.Conn
	maxFrame int

	wmu  sync.Mutex // serializes {enqueue, encode, write}
	wbuf []byte     // reused frame-encode buffer, guarded by wmu

	mu      sync.Mutex
	pending []pendingSlot
	dead    error // sticky; set once by fail
}

// maxRetainedWriteBuf caps the encode buffer kept across requests: one
// oversized PUT must not pin its payload's worth of memory on the
// connection forever.
const maxRetainedWriteBuf = 64 << 10

func dialConn(addr string, o Options) (*conn, error) {
	nc, err := net.DialTimeout("tcp", addr, o.dialTimeout())
	if err != nil {
		return nil, err
	}
	c := &conn{nc: nc, maxFrame: o.maxFrame()}
	go c.readLoop()
	return c, nil
}

func (c *conn) isDead() bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.dead != nil
}

// fail marks the connection dead, closes it, and delivers err to every
// in-flight request. Idempotent.
func (c *conn) fail(err error) {
	c.mu.Lock()
	if c.dead != nil {
		c.mu.Unlock()
		return
	}
	c.dead = err
	ps := c.pending
	c.pending = nil
	c.mu.Unlock()
	c.nc.Close()
	for _, slot := range ps {
		slot.ch <- result{err: err}
	}
}

func (c *conn) readLoop() {
	r := bufio.NewReader(c.nc)
	for {
		rawOp, rawFields, err := wire.ReadFrame(r, c.maxFrame)
		if err != nil {
			c.fail(fmt.Errorf("%w: %w", ErrConnLost, err))
			return
		}
		c.mu.Lock()
		if len(c.pending) == 0 {
			c.mu.Unlock()
			c.fail(&wire.WireError{Code: wire.CodeBadFrame, Msg: "unsolicited response"})
			return
		}
		slot := c.pending[0]
		c.pending = c.pending[1:]
		c.mu.Unlock()
		// Strip the server's trace echo. Every request is traced, so a
		// response without the head-of-line request's trace means FIFO
		// matching has desynchronized, and every answer on this connection
		// is suspect — kill it, wrapping ErrConnLost so idempotent and
		// key-stamped requests retry. The exception is an untraced ERROR:
		// the server sends one when it could not parse the request, then
		// closes, so its typed error is delivered (an oversize request
		// stays a non-retried ErrTooLarge).
		op, trace, fields, traced, err := wire.SplitTrace(rawOp, rawFields)
		switch {
		case err != nil:
		case !traced && op != wire.OpError:
			err = fmt.Errorf("untraced %s response, request sent trace %#x", wire.OpName(op), slot.trace)
		case traced && trace != slot.trace:
			err = fmt.Errorf("trace mismatch: response carries %#x, request sent %#x", trace, slot.trace)
		}
		if err != nil {
			werr := fmt.Errorf("%w: %w", ErrConnLost, err)
			c.fail(werr)
			slot.ch <- result{err: werr}
			return
		}
		slot.ch <- result{op: op, fields: fields}
	}
}

// roundTrip writes one request and waits for its response. Concurrent
// callers pipeline: their frames are written back to back and answered in
// order. timeout covers the whole round trip; on expiry the connection is
// killed (responses can no longer be matched) and redialed by the pool on
// next use.
func (c *conn) roundTrip(timeout time.Duration, op byte, fields ...[]byte) (byte, [][]byte, error) {
	ch := make(chan result, 1)
	slot := pendingSlot{ch: ch, trace: nextTrace()}
	var deadline time.Time
	if timeout > 0 {
		deadline = time.Now().Add(timeout)
	}
	c.wmu.Lock()
	c.mu.Lock()
	if c.dead != nil {
		err := c.dead
		c.mu.Unlock()
		c.wmu.Unlock()
		return 0, nil, err
	}
	c.pending = append(c.pending, slot)
	c.mu.Unlock()
	c.nc.SetWriteDeadline(deadline)
	// Encode into the connection's reused buffer and write in one syscall.
	// Trace stamping this way costs zero allocations (E15 addendum in
	// EXPERIMENTS.md): AppendTracedFrame splices the trace field into the
	// frame in place, where the old AppendTrace-then-WriteFrame pair built
	// a fresh field slice and a fresh frame buffer per request.
	buf, err := wire.AppendTracedFrame(c.wbuf[:0], c.maxFrame, op, slot.trace, fields...)
	if err == nil {
		c.wbuf = buf
		if cap(c.wbuf) > maxRetainedWriteBuf {
			c.wbuf = nil
		}
		_, err = c.nc.Write(buf)
	}
	c.wmu.Unlock()
	if err != nil {
		c.fail(fmt.Errorf("%w: write failed: %w", ErrConnLost, err))
		r := <-ch // fail delivered to every pending slot, including ours
		if r.err == nil {
			// The response won the race with fail's delivery: the frame
			// reached the server despite the reported write error, and the
			// reader matched its answer to our slot before fail drained it.
			return r.op, r.fields, nil
		}
		return 0, nil, r.err
	}
	if timeout <= 0 {
		r := <-ch
		return r.op, r.fields, r.err
	}
	timer := time.NewTimer(time.Until(deadline))
	defer timer.Stop()
	select {
	case r := <-ch:
		return r.op, r.fields, r.err
	case <-timer.C:
		c.fail(ErrDeadline)
		r := <-ch
		if r.err == nil {
			// The response won the race with fail's delivery.
			return r.op, r.fields, nil
		}
		return 0, nil, r.err
	}
}
