package wire

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"testing"
	"time"

	"dbpl/internal/persist/codec"
	"dbpl/internal/types"
	"dbpl/internal/value"
)

// FuzzReadFrame is the wire-decoder contract, the same one
// persist/codec/fuzz_test.go enforces for the image codec: any byte
// stream — malformed frames, truncated length prefixes, oversize claims —
// yields frames or a *WireError, never a panic and never an allocation
// beyond the frame limit; every frame that decodes re-encodes to a frame
// that decodes identically; and the payload decoder of the frame's
// opcode answers it or refuses it with a *WireError.
func FuzzReadFrame(f *testing.F) {
	// Seed corpus: one frame per opcode table row at its minimum and
	// maximum arity, traced and untraced, so a new opcode is fuzzed
	// without editing this list; then realistic payloads and degenerate
	// inputs.
	mustFrame := func(op byte, fields ...[]byte) []byte {
		b, err := AppendFrame(nil, 0, op, fields...)
		if err != nil {
			f.Fatal(err)
		}
		return b
	}
	typeImg, err := MarshalType(types.MustParse("{Name: String, Age: Int}"))
	if err != nil {
		f.Fatal(err)
	}
	tagged, err := codec.MarshalTagged(value.Rec("Name", value.String("J Doe")), nil)
	if err != nil {
		f.Fatal(err)
	}
	// A client-stamped idempotency key, as Put/Delete/Commit carry it.
	idemKey := []byte{1, 2, 3, 4, 5, 6, 7, 8, 0, 0, 0, 0, 0, 0, 0, 9}
	for i, p := range Ops {
		if p.Name == "" {
			continue
		}
		for _, n := range []int{p.MinFields, p.MaxFields} {
			fields := make([][]byte, n)
			for j := range fields {
				fields[j] = UvarintField(uint64(j + 1))
			}
			f.Add(mustFrame(byte(i), fields...))
			tracedOp, tracedFields := AppendTrace(byte(i), 0xFEED, fields)
			f.Add(mustFrame(tracedOp, tracedFields...))
		}
	}
	f.Add(mustFrame(OpGet, typeImg))
	f.Add(mustFrame(OpPut, []byte("root"), tagged))
	f.Add(mustFrame(OpPut, []byte("root"), tagged, idemKey))
	f.Add(mustFrame(OpDelete, []byte("root"), idemKey))
	f.Add(mustFrame(OpCommit, idemKey))
	// Index administration and plan inspection.
	f.Add(mustFrame(OpCreateIndex, []byte("Empno"), idemKey))
	f.Add(mustFrame(OpDropIndex, []byte("Empno"), idemKey))
	f.Add(mustFrame(OpExplain, typeImg))
	f.Add(mustFrame(OpExplain, typeImg, typeImg))
	// Traced frames: flag set, leading uvarint trace-ID field.
	tracedOp, tracedFields := AppendTrace(OpGet, 0xDEADBEEF, [][]byte{typeImg})
	f.Add(mustFrame(tracedOp, tracedFields...))
	echoOp, echoFields := AppendTrace(OpOK, 0xDEADBEEF, nil)
	f.Add(mustFrame(echoOp, echoFields...))
	f.Add(mustFrame(OpGet | TraceFlag))                               // traced without a trace field
	f.Add(mustFrame(OpGet|TraceFlag, []byte{0xFF, 0xFF, 0xFF, 0xFF})) // unterminated trace uvarint
	f.Add(mustFrame(OpError, []byte{byte(CodeIO)}, []byte("write failed")))
	f.Add(mustFrame(OpError, ErrorFields(&WireError{Code: CodeOverloaded,
		Msg: "shed", RetryAfter: 50 * time.Millisecond})...))
	f.Add(mustFrame(OpOK, HealthFields(Health{Poisoned: true, InFlight: 7,
		Sessions: 2, Roots: 100, Uptime: time.Hour})...))
	// The durable-watermark pair: acked ahead of durable (async mode), and
	// the retired six-field shape without AckedEnd, which must be refused.
	f.Add(mustFrame(OpOK, HealthFields(Health{DurableEnd: 1 << 20, AckedEnd: 1<<20 + 512})...))
	f.Add(mustFrame(OpOK, HealthFields(Health{DurableEnd: 1 << 20})[:6]...))
	// Replication: the subscribe request and the stream frame, plus
	// damaged variants (truncated group bytes, oversize offset, bad CRC
	// trailer) — each must decode to a *WireError, never panic.
	f.Add(mustFrame(OpReplicate, ReplicateFields(8, 3)...))
	f.Add(mustFrame(OpReplicate, UvarintField(8)))                                                    // retired single-field form
	f.Add(mustFrame(OpReplicate, []byte{0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0x01})) // > MaxInt64
	f.Add(mustFrame(OpRepData, ReplDataTraceFields(8, []byte("NOTALOGGROUP"), 2, 0, 0)...))
	f.Add(func() []byte { // truncated group payload invalidating the CRC
		fields := ReplDataTraceFields(8, []byte("group-bytes-here"), 2, 0, 0)
		fields[1] = fields[1][:4]
		return mustFrame(OpRepData, fields...)
	}())
	f.Add(func() []byte { // flipped CRC trailer
		fields := ReplDataTraceFields(8, []byte("group-bytes-here"), 2, 0, 0)
		fields[5][0] ^= 0x40
		return mustFrame(OpRepData, fields...)
	}())
	f.Add(func() []byte { // flipped epoch field (the byte fencing trusts)
		fields := ReplDataTraceFields(8, []byte("group-bytes-here"), 2, 0, 0)
		fields[2][0] ^= 0x01
		return mustFrame(OpRepData, fields...)
	}())
	f.Add(mustFrame(OpRepData, []byte{8}, []byte("raw"))) // missing trailer
	// A frame ending at a traced commit, plus damaged variants (flipped
	// trace ID, flipped commit timestamp, truncated to five fields) —
	// corrupt trace context must fail the CRC, never leak into a
	// follower's apply path.
	f.Add(mustFrame(OpRepData, ReplDataTraceFields(8, []byte("group-bytes-here"), 2, 0xDEADBEEF, 1<<60)...))
	f.Add(func() []byte { // flipped trace-ID field
		fields := ReplDataTraceFields(8, []byte("group-bytes-here"), 2, 0xDEADBEEF, 1<<60)
		fields[3][0] ^= 0x01
		return mustFrame(OpRepData, fields...)
	}())
	f.Add(func() []byte { // flipped commit-time field
		fields := ReplDataTraceFields(8, []byte("group-bytes-here"), 2, 0xDEADBEEF, 1<<60)
		fields[4][0] ^= 0x01
		return mustFrame(OpRepData, fields...)
	}())
	f.Add(mustFrame(OpRepData, ReplDataTraceFields(8, []byte("group-bytes-here"), 2, 0xDEADBEEF, 1<<60)[:5]...))
	// A TRACES response field carrying junk instead of an encoded trace.
	f.Add(mustFrame(OpOK, []byte{'T', 1, 0xFF, 0xFF}))
	f.Add(mustFrame(OpRepHeartbeat, HeartbeatFields(1<<40, 5)...))
	f.Add(mustFrame(OpRepHeartbeat, UvarintField(64))) // retired single-field form
	f.Add(mustFrame(OpRepHeartbeat))
	// Failover: the fence notification and a malformed fence epoch.
	f.Add(mustFrame(OpPromote, FenceFields(9, "10.0.0.2:7070")...))
	f.Add(mustFrame(OpPromote, []byte{0xFF}, []byte("addr")))
	// The nine-field HEALTH payload with role and epoch, and the retired
	// seven-field shape.
	f.Add(mustFrame(OpOK, HealthFields(Health{ReadOnly: true, Role: RoleFenced, Epoch: 4,
		DurableEnd: 1 << 20, AckedEnd: 1 << 20})...))
	f.Add(mustFrame(OpOK, HealthFields(Health{DurableEnd: 1 << 20, AckedEnd: 1<<20 + 512})[:7]...))
	f.Add(append(mustFrame(OpBegin), mustFrame(OpCommit)...)) // pipelined
	f.Add([]byte{})
	f.Add([]byte{0, 0, 0, 0})
	f.Add([]byte{0xFF, 0xFF, 0xFF, 0xFF, 1})
	f.Add(mustFrame(OpGet, typeImg)[:7]) // truncated mid-payload
	f.Add(func() []byte {                // field length claiming past the end
		var hdr [4]byte
		binary.BigEndian.PutUint32(hdr[:], 3)
		return append(hdr[:], OpGet, 0xF0, 0x01)
	}())

	const limit = 1 << 20
	f.Fuzz(func(t *testing.T, data []byte) {
		r := bytes.NewReader(data)
		for {
			op, fields, err := ReadFrame(r, limit)
			if err != nil {
				// Every failure must be a classified wire error or a raw
				// transport error at/inside the header.
				var we *WireError
				if !errors.As(err, &we) && err != io.EOF && err != io.ErrUnexpectedEOF {
					t.Fatalf("unclassified decode error: %v", err)
				}
				return
			}
			if err := decodePayload(op, fields); err != nil {
				var we *WireError
				if !errors.As(err, &we) {
					t.Fatalf("%s payload: unclassified decode error: %v", OpName(op), err)
				}
			}
			// Decoded frames re-encode and re-decode to the same frame.
			reenc, err := AppendFrame(nil, limit, op, fields...)
			if err != nil {
				t.Fatalf("re-encode of decoded frame failed: %v", err)
			}
			op2, fields2, err := ReadFrame(bytes.NewReader(reenc), limit)
			if err != nil {
				t.Fatalf("re-decode failed: %v", err)
			}
			if op2 != op || len(fields2) != len(fields) {
				t.Fatalf("re-decode mismatch: op %#x/%#x, %d/%d fields",
					op, op2, len(fields), len(fields2))
			}
			for i := range fields {
				if !bytes.Equal(fields[i], fields2[i]) {
					t.Fatalf("field %d mismatch", i)
				}
			}
		}
	})
}

// decodePayload runs the payload decoder a peer applies to a frame with
// this opcode: the request arity check, or the response and stream
// decoders. OK payloads are tried as HEALTH, the one typed OK payload.
func decodePayload(op byte, fields [][]byte) error {
	op, _, fields, _, err := SplitTrace(op, fields)
	if err != nil {
		return err
	}
	switch op {
	case OpReplicate:
		_, _, err = DecodeReplicateReq(fields)
	case OpPromote:
		_, _, _, err = DecodePromote(fields)
	case OpRepData:
		_, err = DecodeReplData(fields)
	case OpRepHeartbeat:
		_, _, err = DecodeHeartbeat(fields)
	case OpError:
		err = DecodeError(fields) // the remote error itself, or a decode failure
	case OpOK:
		_, err = DecodeHealth(fields)
	default:
		if p, ok := Policy(op); ok {
			err = p.CheckArity(len(fields))
		}
	}
	return err
}
