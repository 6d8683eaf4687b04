// Package wire is the dbpl network protocol: the framing, opcodes and
// error taxonomy shared by the server (internal/server) and the client
// package (dbpl/client).
//
// A frame is a 4-byte big-endian payload length followed by the payload:
// one opcode byte and zero or more *fields*, each a uvarint length prefix
// followed by that many bytes. Fields carry UTF-8 names, single bytes
// (error codes, booleans) or complete persist/codec images — the same
// self-describing value+type encoding every persistence store uses, so a
// value travels the network exactly as it travels to disk (the paper's
// second principle: while a value persists — or here, transits — so does
// its type).
//
// The decoder is hardened the same way the image codec is: a malformed
// frame, a truncated length prefix or an oversize length claim yields a
// *WireError, never a panic and never an allocation larger than the
// configured frame limit. FuzzReadFrame enforces this.
//
// Remote failures keep their local diagnosability: a *WireError carries a
// Code and the server's message, and unwraps to a per-code sentinel —
// CodeIO additionally unwraps to iofault.ErrIOFailed, so
// errors.Is(err, iofault.ErrIOFailed) holds across the network exactly as
// it does against a local store.
package wire

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"strconv"
	"time"

	"dbpl/internal/persist/codec"
	"dbpl/internal/persist/iofault"
	"dbpl/internal/types"
)

// MaxFrame is the default bound on a frame payload. A peer claiming a
// larger frame is refused before any allocation.
const MaxFrame = 16 << 20

const headerLen = 4

// Request opcodes. The write opcodes (PUT, DELETE, COMMIT) accept one
// optional trailing field: a client-stamped *idempotency key*, opaque
// bytes the server remembers in a bounded LRU of applied write ids so a
// retried frame — sent again because the acknowledgement was lost, not
// because the write failed — applies exactly once.
const (
	OpPing   byte = 0x01 // []                        -> OK []
	OpGet    byte = 0x02 // [type-image]              -> Values [tagged...]
	OpPut    byte = 0x03 // [name, tagged-image, id?] -> OK []
	OpDelete byte = 0x04 // [name, id?]               -> OK [existed(1)]
	OpJoin   byte = 0x05 // [type-image, type-image]  -> Values [tagged...]
	OpBegin  byte = 0x06 // []                        -> OK []
	OpCommit byte = 0x07 // [id?]                     -> OK []
	OpAbort  byte = 0x08 // []                        -> OK []
	OpNames  byte = 0x09 // []                        -> OK [name...]
	OpHealth byte = 0x0A // []                        -> OK [health fields]
	OpStats  byte = 0x0B // []                        -> OK [snapshot]
	// Index administration (write opcodes: the id? field is the
	// idempotency key) and plan inspection.
	OpCreateIndex byte = 0x0C // [field, id?]              -> OK [created(1)]
	OpDropIndex   byte = 0x0D // [field, id?]              -> OK [existed(1)]
	OpExplain     byte = 0x0E // [type-image(, type-image)] -> OK [plan-text]
	// OpReplicate subscribes the connection to the primary's log:
	// [from, epoch], the uvarint durable offset and the subscriber's
	// promotion epoch — a server seeing a subscriber with a higher epoch
	// than its own has been superseded and fences itself.
	// The server answers with an open-ended stream of OpRepData /
	// OpRepHeartbeat frames instead of a single response; the connection
	// carries nothing else afterwards.
	OpReplicate byte = 0x0F
	// OpPromote is failover administration, gated by the server's
	// -allow-promote flag. With no fields it orders this server to
	// promote: bump the store epoch durably, leave follower mode and
	// start accepting writes ([] -> OK [epoch]). With fields
	// [epoch, newPrimaryAddr] it is the fence notification a newly
	// promoted primary sends its old upstream: you have been superseded
	// at this epoch, enter fenced read-only mode and refer writers to
	// newPrimaryAddr ([epoch, addr] -> OK []).
	OpPromote byte = 0x10
	// OpTraces fetches the server's ring of completed request trace
	// trees ([] -> OK [encoded-trace...], one binary trace per field,
	// newest first — see internal/telemetry/trace). Like STATS it
	// bypasses admission control, so span trees stay fetchable from an
	// overloaded server.
	OpTraces byte = 0x11
)

// Response opcodes. OpRepData and OpRepHeartbeat are the replication
// stream (see OpReplicate): REPDATA carries whole commit groups as raw log
// bytes [startOffset, raw, epoch, trace, commitNS, crc32c], where the
// 4-byte little-endian CRC-32C trailer covers every preceding field — so a
// flipped bit anywhere in the frame is detected before the follower
// touches its log. REPHEARTBEAT is the idle keepalive [durableEnd, epoch],
// letting a follower distinguish a quiet primary from a dead link and
// track lag while fully caught up.
const (
	OpOK           byte = 0x80
	OpValues       byte = 0x81
	OpError        byte = 0x82 // [code(1), message, retryAfter?]
	OpRepData      byte = 0x83 // [startOffset, rawGroups, epoch, trace, commitNS, crc32c(4)]
	OpRepHeartbeat byte = 0x84 // [durableEnd, epoch]
)

// TraceFlag marks a *traced* frame in either direction: the opcode byte
// has this bit set and the first field is a uvarint trace ID. A client
// stamps every request with a trace ID so the server can attribute
// slow-op log entries to the exact client call that suffered them; the
// server echoes the ID (and the flag) on the response. Request opcodes
// (< 0x40) and response opcodes (0x80–0xBF) never collide with the flag.
// The server still answers untraced requests untraced: a follower's
// REPLICATE and the fence PROMOTE are sent without a trace.
const TraceFlag byte = 0x40

// OpPolicy is one request opcode's row in Ops: every per-opcode decision
// the server and the client make.
type OpPolicy struct {
	// Name labels the opcode in logs, metric series and the slow-op ring.
	Name string
	// Monitor opcodes bypass admission control, are never traced, and are
	// answered while the server drains or its write path is poisoned: a
	// monitor must get an answer from exactly the server that is refusing
	// everyone else.
	Monitor bool
	// RoleWrite opcodes mutate the store; a follower refuses them with
	// CodeReadOnly and a fenced ex-primary with CodeFenced.
	RoleWrite bool
	// Stream opcodes turn the connection into a one-way stream of frames
	// instead of one response.
	Stream bool
	// MinFields and MaxFields bound the request's field count, the trace
	// field excluded.
	MinFields, MaxFields int
}

// Ops is the request opcode table, indexed by opcode; a row with an empty
// Name is an unassigned opcode. The array bound keeps every request
// opcode below TraceFlag at compile time.
var Ops = [TraceFlag]OpPolicy{
	OpPing:        {Name: "PING"},
	OpGet:         {Name: "GET", MinFields: 1, MaxFields: 1},
	OpPut:         {Name: "PUT", RoleWrite: true, MinFields: 2, MaxFields: 3},
	OpDelete:      {Name: "DELETE", RoleWrite: true, MinFields: 1, MaxFields: 2},
	OpJoin:        {Name: "JOIN", MinFields: 2, MaxFields: 2},
	OpBegin:       {Name: "BEGIN", RoleWrite: true},
	OpCommit:      {Name: "COMMIT", RoleWrite: true, MaxFields: 1},
	OpAbort:       {Name: "ABORT"},
	OpNames:       {Name: "NAMES"},
	OpHealth:      {Name: "HEALTH", Monitor: true},
	OpStats:       {Name: "STATS", Monitor: true},
	OpCreateIndex: {Name: "CREATEINDEX", RoleWrite: true, MinFields: 1, MaxFields: 2},
	OpDropIndex:   {Name: "DROPINDEX", RoleWrite: true, MinFields: 1, MaxFields: 2},
	OpExplain:     {Name: "EXPLAIN", MinFields: 1, MaxFields: 2},
	OpReplicate:   {Name: "REPLICATE", Stream: true, MinFields: 2, MaxFields: 2},
	// PROMOTE takes 0 or 2 fields; DecodePromote refuses 1.
	OpPromote: {Name: "PROMOTE", MaxFields: 2},
	OpTraces:  {Name: "TRACES", Monitor: true},
}

// Policy returns op's row in Ops and whether op is an assigned request
// opcode.
func Policy(op byte) (OpPolicy, bool) {
	if op >= TraceFlag {
		return OpPolicy{}, false
	}
	return Ops[op], Ops[op].Name != ""
}

// CheckArity refuses, with CodeBadRequest, a request carrying n fields
// when the opcode takes fewer or more.
func (p OpPolicy) CheckArity(n int) error {
	if n >= p.MinFields && n <= p.MaxFields {
		return nil
	}
	want := strconv.Itoa(p.MinFields)
	switch {
	case p.MaxFields == p.MinFields+1:
		want += " or " + strconv.Itoa(p.MaxFields)
	case p.MaxFields > p.MinFields:
		want += " to " + strconv.Itoa(p.MaxFields)
	}
	return errf(CodeBadRequest, "%s wants %s fields, got %d", p.Name, want, n)
}

// responseNames names the response opcodes.
var responseNames = map[byte]string{
	OpOK: "OK", OpValues: "VALUES", OpError: "ERROR",
	OpRepData: "REPDATA", OpRepHeartbeat: "REPHEARTBEAT",
}

// OpName names a request or response opcode for logs, metrics and the
// slow-op ring; a traced opcode names the same as its base. Unknown
// opcodes render as "op(0xNN)" — callers using names as metric labels
// must not feed them unvalidated peer opcodes, or a hostile peer could
// mint unbounded label cardinality.
func OpName(op byte) string {
	base := op &^ TraceFlag
	if p, ok := Policy(base); ok {
		return p.Name
	}
	if name, ok := responseNames[base]; ok {
		return name
	}
	return fmt.Sprintf("op(%#x)", op)
}

// AppendTrace turns an untraced frame into a traced one: sets the flag
// on op and prepends the trace-ID field.
func AppendTrace(op byte, trace uint64, fields [][]byte) (byte, [][]byte) {
	return op | TraceFlag, append([][]byte{UvarintField(trace)}, fields...)
}

// SplitTrace undoes AppendTrace: for a traced frame it strips the flag
// and consumes the leading trace-ID field; an untraced frame passes
// through. A traced frame without a well-formed trace field is a
// protocol violation.
func SplitTrace(op byte, fields [][]byte) (base byte, trace uint64, rest [][]byte, traced bool, err error) {
	if op&TraceFlag == 0 {
		return op, 0, fields, false, nil
	}
	if len(fields) == 0 {
		return 0, 0, nil, false, errf(CodeBadFrame, "traced frame without a trace-ID field")
	}
	v, ok := uvarintOf(fields[0])
	if !ok {
		return 0, 0, nil, false, errf(CodeBadFrame, "malformed trace-ID field")
	}
	return op &^ TraceFlag, v, fields[1:], true, nil
}

// Code classifies a remote failure, mirroring the local error taxonomy of
// the stores (iofault.IOError, intrinsic.CorruptError, the intrinsic
// binding errors). Codes are wire format: values are stable.
type Code byte

const (
	// CodeBadFrame: the frame itself was malformed (bad length prefix,
	// truncated payload, empty frame). The connection is closed after it.
	CodeBadFrame Code = 1 + iota
	// CodeTooLarge: a length claim exceeded the frame limit.
	CodeTooLarge
	// CodeUnknownOp: the opcode is not in the protocol.
	CodeUnknownOp
	// CodeBadRequest: the frame was well-formed but a field was not (bad
	// image, wrong field count).
	CodeBadRequest
	// CodeNoRoot: no handle with the requested name.
	CodeNoRoot
	// CodeNotConforming: the value does not conform to its declared type.
	CodeNotConforming
	// CodeInconsistent: stored and requested types are inconsistent, or
	// migration would be required (the schema-evolution failures).
	CodeInconsistent
	// CodeTxn: a transaction-state error (COMMIT without BEGIN, nested
	// BEGIN).
	CodeTxn
	// CodeIO: the store failed an I/O operation; unwraps to
	// iofault.ErrIOFailed.
	CodeIO
	// CodeCorrupt: the store detected log corruption.
	CodeCorrupt
	// CodeShutdown: the server is draining and refused the request.
	CodeShutdown
	// CodeInternal: an unclassified server-side failure.
	CodeInternal
	// CodeOverloaded: admission control shed the request — the in-flight
	// cap was reached. The error carries a retry-after hint; the request
	// was not executed and is safe to retry.
	CodeOverloaded
	// CodeDegraded: the server's write path is poisoned (a failed commit
	// could not be rolled back) and it is running in degraded read-only
	// mode; reads and HEALTH keep working until the process restarts.
	CodeDegraded
	// CodeReadOnly: the server is a replication follower and permanently
	// refuses writes; the message names the primary to send them to.
	// Unlike CodeOverloaded this is never retryable against this server —
	// a follower does not become writable by waiting.
	CodeReadOnly
	// CodeFenced: this server was the primary but observed a higher
	// promotion epoch — another node was promoted over it — and now
	// refuses writes so the forked histories can never both be
	// acknowledged. The message names the new primary. Never retryable
	// against this server, but the client's failover logic re-probes the
	// replica set and re-pins writes at the new primary.
	CodeFenced
)

// Per-code sentinels; a *WireError unwraps to the sentinel of its code so
// clients dispatch with errors.Is.
var (
	ErrBadFrame      = errors.New("wire: malformed frame")
	ErrTooLarge      = errors.New("wire: frame exceeds size limit")
	ErrUnknownOp     = errors.New("wire: unknown opcode")
	ErrBadRequest    = errors.New("wire: malformed request")
	ErrNoRoot        = errors.New("wire: no such root")
	ErrNotConforming = errors.New("wire: value does not conform to declared type")
	ErrInconsistent  = errors.New("wire: types are inconsistent")
	ErrTxn           = errors.New("wire: transaction state error")
	ErrRemoteIO      = errors.New("wire: remote i/o failure")
	ErrRemoteCorrupt = errors.New("wire: remote store corrupt")
	ErrShutdown      = errors.New("wire: server shutting down")
	ErrInternal      = errors.New("wire: internal server error")
	ErrOverloaded    = errors.New("wire: server overloaded")
	ErrDegraded      = errors.New("wire: server degraded to read-only")
	ErrReadOnly      = errors.New("wire: server is a read-only replication follower")
	ErrFenced        = errors.New("wire: server is fenced: a higher promotion epoch exists")
)

// codes is the error code table, indexed by code: each code's name and
// sentinel. Index 0 is unassigned.
var codes = [...]struct {
	name     string
	sentinel error
}{
	CodeBadFrame:      {"bad-frame", ErrBadFrame},
	CodeTooLarge:      {"too-large", ErrTooLarge},
	CodeUnknownOp:     {"unknown-op", ErrUnknownOp},
	CodeBadRequest:    {"bad-request", ErrBadRequest},
	CodeNoRoot:        {"no-root", ErrNoRoot},
	CodeNotConforming: {"not-conforming", ErrNotConforming},
	CodeInconsistent:  {"inconsistent", ErrInconsistent},
	CodeTxn:           {"txn", ErrTxn},
	CodeIO:            {"io", ErrRemoteIO},
	CodeCorrupt:       {"corrupt", ErrRemoteCorrupt},
	CodeShutdown:      {"shutdown", ErrShutdown},
	CodeInternal:      {"internal", ErrInternal},
	CodeOverloaded:    {"overloaded", ErrOverloaded},
	CodeDegraded:      {"degraded", ErrDegraded},
	CodeReadOnly:      {"read-only", ErrReadOnly},
	CodeFenced:        {"fenced", ErrFenced},
}

// NumCodes bounds the assigned codes: every code in
// [CodeBadFrame, NumCodes) has a name and a sentinel.
const NumCodes = len(codes)

// String names the code.
func (c Code) String() string {
	if int(c) < NumCodes && codes[c].name != "" {
		return codes[c].name
	}
	return fmt.Sprintf("code(%d)", byte(c))
}

// Sentinel returns the errors.Is target for the code; an unassigned code
// maps to ErrInternal.
func (c Code) Sentinel() error {
	if int(c) < NumCodes && codes[c].sentinel != nil {
		return codes[c].sentinel
	}
	return ErrInternal
}

// WireError is a protocol-level failure: which class, and the peer's (or
// decoder's) diagnostic message. RetryAfter, when positive, is the
// server's backoff hint — how long the peer should wait before retrying
// (carried on CodeOverloaded refusals).
type WireError struct {
	Code       Code
	Msg        string
	RetryAfter time.Duration
}

func (e *WireError) Error() string {
	if e.Msg == "" {
		return fmt.Sprintf("wire: %s", e.Code)
	}
	return fmt.Sprintf("wire: %s: %s", e.Code, e.Msg)
}

// Unwrap exposes the per-code sentinel; CodeIO failures additionally
// unwrap to iofault.ErrIOFailed, keeping remote store failures in the
// same taxonomy as local ones.
func (e *WireError) Unwrap() []error {
	if e.Code == CodeIO {
		return []error{e.Code.Sentinel(), iofault.ErrIOFailed}
	}
	return []error{e.Code.Sentinel()}
}

// errf builds a *WireError.
func errf(c Code, format string, args ...any) *WireError {
	return &WireError{Code: c, Msg: fmt.Sprintf(format, args...)}
}

// ---------------------------------------------------------------------------
// Framing
// ---------------------------------------------------------------------------

// AppendFrame appends the encoded frame to dst and returns it, or an error
// if the frame would exceed max (<= 0 means MaxFrame).
func AppendFrame(dst []byte, max int, op byte, fields ...[]byte) ([]byte, error) {
	if max <= 0 {
		max = MaxFrame
	}
	n := 1
	var lenBuf [binary.MaxVarintLen64]byte
	for _, f := range fields {
		n += binary.PutUvarint(lenBuf[:], uint64(len(f))) + len(f)
	}
	if n > max {
		return dst, errf(CodeTooLarge, "frame payload %d exceeds limit %d", n, max)
	}
	var hdr [headerLen]byte
	binary.BigEndian.PutUint32(hdr[:], uint32(n))
	dst = append(dst, hdr[:]...)
	dst = append(dst, op)
	for _, f := range fields {
		k := binary.PutUvarint(lenBuf[:], uint64(len(f)))
		dst = append(dst, lenBuf[:k]...)
		dst = append(dst, f...)
	}
	return dst, nil
}

// AppendTracedFrame appends a whole traced frame — flag bit set,
// leading trace-ID field, then fields — to dst in one pass, byte-
// identical to AppendFrame over AppendTrace's output but without the
// [][]byte prepend and the trace-field allocation. This is the client's
// hot request-stamping path: with a reused dst buffer a traced frame
// encodes with zero allocations (E15 measured +7 allocs/op from the
// AppendTrace route).
func AppendTracedFrame(dst []byte, max int, op byte, trace uint64, fields ...[]byte) ([]byte, error) {
	if max <= 0 {
		max = MaxFrame
	}
	var traceBuf [binary.MaxVarintLen64]byte
	tn := binary.PutUvarint(traceBuf[:], trace)
	var lenBuf [binary.MaxVarintLen64]byte
	n := 1 + binary.PutUvarint(lenBuf[:], uint64(tn)) + tn
	for _, f := range fields {
		n += binary.PutUvarint(lenBuf[:], uint64(len(f))) + len(f)
	}
	if n > max {
		return dst, errf(CodeTooLarge, "frame payload %d exceeds limit %d", n, max)
	}
	var hdr [headerLen]byte
	binary.BigEndian.PutUint32(hdr[:], uint32(n))
	dst = append(dst, hdr[:]...)
	dst = append(dst, op|TraceFlag)
	k := binary.PutUvarint(lenBuf[:], uint64(tn))
	dst = append(dst, lenBuf[:k]...)
	dst = append(dst, traceBuf[:tn]...)
	for _, f := range fields {
		k := binary.PutUvarint(lenBuf[:], uint64(len(f)))
		dst = append(dst, lenBuf[:k]...)
		dst = append(dst, f...)
	}
	return dst, nil
}

// WriteFrame writes one frame in a single Write call (so concurrent
// writers serialized by a mutex never interleave partial frames).
func WriteFrame(w io.Writer, max int, op byte, fields ...[]byte) error {
	buf, err := AppendFrame(nil, max, op, fields...)
	if err != nil {
		return err
	}
	_, err = w.Write(buf)
	return err
}

// ReadFrame reads one frame. max bounds the payload (<= 0 means MaxFrame);
// an oversize claim fails before any allocation. Errors reading the 4-byte
// header are returned raw (io.EOF at a frame boundary is a clean close);
// everything after the header that goes wrong is a *WireError.
func ReadFrame(r io.Reader, max int) (op byte, fields [][]byte, err error) {
	if max <= 0 {
		max = MaxFrame
	}
	var hdr [headerLen]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return 0, nil, err
	}
	n := binary.BigEndian.Uint32(hdr[:])
	if n == 0 {
		return 0, nil, errf(CodeBadFrame, "empty frame")
	}
	if n > uint32(max) {
		return 0, nil, errf(CodeTooLarge, "frame payload %d exceeds limit %d", n, max)
	}
	payload := make([]byte, n)
	if _, err := io.ReadFull(r, payload); err != nil {
		return 0, nil, errf(CodeBadFrame, "truncated frame: %v", err)
	}
	fields, err = SplitFields(payload[1:])
	if err != nil {
		return 0, nil, err
	}
	return payload[0], fields, nil
}

// SplitFields parses the field sequence of a frame payload. The returned
// slices alias b.
func SplitFields(b []byte) ([][]byte, error) {
	var out [][]byte
	for len(b) > 0 {
		n, k := binary.Uvarint(b)
		if k <= 0 {
			return nil, errf(CodeBadFrame, "bad field length prefix")
		}
		if n > uint64(len(b)-k) {
			return nil, errf(CodeBadFrame, "field length %d exceeds remaining %d", n, len(b)-k)
		}
		out = append(out, b[k:k+int(n)])
		b = b[k+int(n):]
	}
	return out, nil
}

// ---------------------------------------------------------------------------
// Field images (persist/codec reuse)
// ---------------------------------------------------------------------------

// MarshalType encodes a type as a self-contained codec image field.
func MarshalType(t types.Type) ([]byte, error) {
	var buf bytes.Buffer
	e := codec.NewEncoder(&buf)
	if err := e.Type(t); err != nil {
		return nil, err
	}
	if err := e.Flush(); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// UnmarshalType decodes a type image field.
func UnmarshalType(b []byte) (types.Type, error) {
	d, err := codec.NewDecoder(bytes.NewReader(b))
	if err != nil {
		return nil, err
	}
	return d.Type()
}

// ErrorFields encodes an OpError payload: [code, message] plus a
// retry-after hint field (uvarint nanoseconds) when the error carries
// one.
func ErrorFields(e *WireError) [][]byte {
	fields := [][]byte{{byte(e.Code)}, []byte(e.Msg)}
	if e.RetryAfter > 0 {
		fields = append(fields, UvarintField(uint64(e.RetryAfter)))
	}
	return fields
}

// DecodeError reconstructs the *WireError from an OpError payload. A
// malformed error payload is itself a protocol error; a malformed
// retry-after hint is dropped rather than trusted.
func DecodeError(fields [][]byte) error {
	if len(fields) < 2 || len(fields[0]) != 1 {
		return errf(CodeBadFrame, "malformed error response")
	}
	we := &WireError{Code: Code(fields[0][0]), Msg: string(fields[1])}
	if len(fields) >= 3 {
		if v, ok := uvarintOf(fields[2]); ok {
			we.RetryAfter = time.Duration(v)
		}
	}
	return we
}

// ---------------------------------------------------------------------------
// Health (the HEALTH opcode)
// ---------------------------------------------------------------------------

// Role is a server's replication role as reported by HEALTH: the writable
// primary, a read-only follower, or a fenced old primary that observed a
// higher promotion epoch. Wire format: values are stable.
type Role byte

const (
	RolePrimary Role = iota
	RoleFollower
	RoleFenced
)

func (r Role) String() string {
	switch r {
	case RolePrimary:
		return "primary"
	case RoleFollower:
		return "follower"
	case RoleFenced:
		return "fenced"
	default:
		return fmt.Sprintf("role(%d)", byte(r))
	}
}

// Health is the server's self-report: whether the write path is poisoned
// (degraded read-only mode), whether it is a read-only replication
// follower, how much work is in flight, how many sessions are connected,
// the committed root count, the uptime, and the store's durable log
// offset. It is the payload of the HEALTH opcode's OK response, and the
// one request a server answers even while shedding load — a monitor must
// be able to ask "are you overloaded?" of an overloaded server.
type Health struct {
	Poisoned bool
	// ReadOnly reports that writes are refused by role: a replication
	// follower (CodeReadOnly) or a fenced old primary (CodeFenced).
	ReadOnly bool
	InFlight int
	Sessions int
	Roots    int
	Uptime   time.Duration
	// DurableEnd is the byte offset just past the store's last durable
	// commit group. On a follower it is the applied replication offset, so
	// primary.DurableEnd - follower.DurableEnd is the replication lag in
	// log bytes — observable from HEALTH alone, no STATS needed.
	DurableEnd int64
	// AckedEnd is the acknowledged-end watermark: the log offset up to
	// which writes have been acknowledged. Equal to DurableEnd except
	// under Durability=async, where AckedEnd - DurableEnd is the
	// acked-but-not-yet-durable window a crash would lose.
	AckedEnd int64
	// Role is the replication role; failover clients probe HEALTH for the
	// highest-epoch node reporting RolePrimary.
	Role Role
	// Epoch is the store's promotion epoch: bumped durably by every
	// PROMOTE, 0 for a log never promoted. Higher epoch wins a failover.
	Epoch uint64
}

// HealthFields encodes the HEALTH response payload.
func HealthFields(h Health) [][]byte {
	var flags byte
	if h.Poisoned {
		flags |= 1
	}
	if h.ReadOnly {
		flags |= 2
	}
	return [][]byte{
		{flags},
		UvarintField(uint64(h.InFlight)),
		UvarintField(uint64(h.Sessions)),
		UvarintField(uint64(h.Roots)),
		UvarintField(uint64(h.Uptime)),
		UvarintField(uint64(h.DurableEnd)),
		UvarintField(uint64(h.AckedEnd)),
		{byte(h.Role)},
		UvarintField(h.Epoch),
	}
}

// DecodeHealth reconstructs the Health from the nine-field HEALTH
// response payload.
func DecodeHealth(fields [][]byte) (Health, error) {
	if len(fields) != 9 || len(fields[0]) != 1 || len(fields[7]) != 1 {
		return Health{}, errf(CodeBadFrame, "malformed HEALTH response")
	}
	var u [6]uint64
	for i := range u {
		v, ok := uvarintOf(fields[1+i])
		if !ok {
			return Health{}, errf(CodeBadFrame, "malformed HEALTH field %d", i+1)
		}
		u[i] = v
	}
	epoch, ok := uvarintOf(fields[8])
	if !ok {
		return Health{}, errf(CodeBadFrame, "malformed HEALTH epoch field")
	}
	return Health{
		Poisoned:   fields[0][0]&1 != 0,
		ReadOnly:   fields[0][0]&2 != 0,
		InFlight:   int(u[0]),
		Sessions:   int(u[1]),
		Roots:      int(u[2]),
		Uptime:     time.Duration(u[3]),
		DurableEnd: int64(u[4]),
		AckedEnd:   int64(u[5]),
		Role:       Role(fields[7][0]),
		Epoch:      epoch,
	}, nil
}

// ---------------------------------------------------------------------------
// Replication frames (the REPLICATE opcode and its stream)
// ---------------------------------------------------------------------------

// replCRCTable is the Castagnoli polynomial — the same CRC-32C the
// intrinsic log uses for its commit groups, so one hardware-accelerated
// checksum family covers disk and wire.
var replCRCTable = crc32.MakeTable(crc32.Castagnoli)

// ReplicateFields encodes the REPLICATE request: stream my log from this
// durable offset. The second field is the subscriber's promotion epoch —
// a primary seeing a subscriber at a higher epoch than its own has been
// superseded and must fence itself.
func ReplicateFields(from int64, epoch uint64) [][]byte {
	return [][]byte{UvarintField(uint64(from)), UvarintField(epoch)}
}

// DecodeReplicateReq decodes the REPLICATE request payload
// [offset, epoch], returning the offset and the subscriber's epoch. An
// offset that does not fit an int64 is as malformed as a truncated one.
func DecodeReplicateReq(fields [][]byte) (int64, uint64, error) {
	if err := Ops[OpReplicate].CheckArity(len(fields)); err != nil {
		return 0, 0, err
	}
	v, ok := uvarintOf(fields[0])
	if !ok {
		return 0, 0, errf(CodeBadRequest, "malformed REPLICATE offset")
	}
	if v > math.MaxInt64 {
		return 0, 0, errf(CodeBadRequest, "REPLICATE offset %d overflows", v)
	}
	epoch, ok := uvarintOf(fields[1])
	if !ok {
		return 0, 0, errf(CodeBadRequest, "malformed REPLICATE epoch")
	}
	return int64(v), epoch, nil
}

// ReplDataTraceFields encodes one REPDATA stream frame: whole commit
// groups as raw log bytes starting at offset start, the primary's
// promotion epoch, the trace ID of the commit that produced the chunk's
// last group and the primary's wall clock (unix nanos) at that commit's
// publication — both 0 when the chunk does not end at a traced commit —
// and the CRC-32C trailer covering all five preceding fields, so a flipped
// bit anywhere (including in the epoch a follower fences on) is detected
// before the follower acts on the frame. A follower links its apply span
// to the primary's trace and measures commit-to-visible delay from
// commitNS.
func ReplDataTraceFields(start int64, raw []byte, epoch, traceID uint64, commitNS int64) [][]byte {
	off := UvarintField(uint64(start))
	ep := UvarintField(epoch)
	tr := UvarintField(traceID)
	ns := UvarintField(uint64(commitNS))
	sum := crc32.Update(crc32.Update(crc32.Update(0, replCRCTable, off), replCRCTable, raw), replCRCTable, ep)
	sum = crc32.Update(crc32.Update(sum, replCRCTable, tr), replCRCTable, ns)
	var trailer [4]byte
	binary.LittleEndian.PutUint32(trailer[:], sum)
	return [][]byte{off, raw, ep, tr, ns, trailer[:]}
}

// ReplData is a verified, decoded REPDATA frame. Trace and CommitNS are 0
// when the chunk does not end at a traced commit.
type ReplData struct {
	Start    int64  // log offset the raw bytes start at
	Raw      []byte // whole commit groups, verbatim log bytes
	Epoch    uint64 // primary's promotion epoch
	Trace    uint64 // trace ID of the commit producing the chunk's last group
	CommitNS int64  // primary wall clock at that commit's publication
}

// DecodeReplData verifies and decodes a six-field REPDATA frame. A
// checksum mismatch is CodeCorrupt — the follower must drop the
// connection and resubscribe from its durable offset rather than apply
// the bytes; any other malformation is CodeBadFrame. Never panics
// (FuzzReadFrame feeds this).
func DecodeReplData(fields [][]byte) (ReplData, error) {
	if len(fields) != 6 || len(fields[5]) != 4 {
		return ReplData{}, errf(CodeBadFrame, "malformed REPDATA frame")
	}
	v, ok := uvarintOf(fields[0])
	if !ok || v > math.MaxInt64 {
		return ReplData{}, errf(CodeBadFrame, "malformed REPDATA offset")
	}
	d := ReplData{Start: int64(v), Raw: fields[1]}
	if d.Epoch, ok = uvarintOf(fields[2]); !ok {
		return ReplData{}, errf(CodeBadFrame, "malformed REPDATA epoch")
	}
	if d.Trace, ok = uvarintOf(fields[3]); !ok {
		return ReplData{}, errf(CodeBadFrame, "malformed REPDATA trace")
	}
	ns, ok := uvarintOf(fields[4])
	if !ok || ns > math.MaxInt64 {
		return ReplData{}, errf(CodeBadFrame, "malformed REPDATA commit time")
	}
	d.CommitNS = int64(ns)
	sum := uint32(0)
	for _, f := range fields[:5] {
		sum = crc32.Update(sum, replCRCTable, f)
	}
	if got := binary.LittleEndian.Uint32(fields[5]); got != sum {
		return ReplData{}, errf(CodeCorrupt,
			"REPDATA checksum mismatch (stored %08x, computed %08x)", got, sum)
	}
	return d, nil
}

// HeartbeatFields encodes a REPHEARTBEAT frame: the primary's durable end
// and its promotion epoch.
func HeartbeatFields(end int64, epoch uint64) [][]byte {
	return [][]byte{UvarintField(uint64(end)), UvarintField(epoch)}
}

// DecodeHeartbeat decodes a REPHEARTBEAT frame [durableEnd, epoch],
// returning the primary's durable end and its epoch.
func DecodeHeartbeat(fields [][]byte) (int64, uint64, error) {
	if len(fields) != 2 {
		return 0, 0, errf(CodeBadFrame, "malformed REPHEARTBEAT frame")
	}
	v, ok := uvarintOf(fields[0])
	if !ok || v > math.MaxInt64 {
		return 0, 0, errf(CodeBadFrame, "malformed REPHEARTBEAT offset")
	}
	epoch, ok := uvarintOf(fields[1])
	if !ok {
		return 0, 0, errf(CodeBadFrame, "malformed REPHEARTBEAT epoch")
	}
	return int64(v), epoch, nil
}

// FenceFields encodes the fence-notification form of a PROMOTE request:
// the sender's (higher) promotion epoch and the address writers should be
// referred to.
func FenceFields(epoch uint64, newPrimary string) [][]byte {
	return [][]byte{UvarintField(epoch), []byte(newPrimary)}
}

// DecodePromote decodes a PROMOTE request. No fields is the self-promote
// order (fence == false); [epoch, newPrimaryAddr] is the fence
// notification (fence == true).
func DecodePromote(fields [][]byte) (epoch uint64, newPrimary string, fence bool, err error) {
	switch len(fields) {
	case 0:
		return 0, "", false, nil
	case 2:
		v, ok := uvarintOf(fields[0])
		if !ok {
			return 0, "", false, errf(CodeBadRequest, "malformed PROMOTE epoch")
		}
		return v, string(fields[1]), true, nil
	default:
		return 0, "", false, errf(CodeBadRequest, "PROMOTE wants 0 or 2 fields, got %d", len(fields))
	}
}

// UvarintField encodes v as a standalone uvarint field (trace IDs,
// hints, gauge values).
func UvarintField(v uint64) []byte {
	var b [binary.MaxVarintLen64]byte
	n := binary.PutUvarint(b[:], v)
	return b[:n]
}

// uvarintOf decodes a field that must be exactly one uvarint.
func uvarintOf(f []byte) (uint64, bool) {
	v, k := binary.Uvarint(f)
	return v, k > 0 && k == len(f)
}
