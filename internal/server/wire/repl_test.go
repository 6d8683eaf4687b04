package wire

import (
	"bytes"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"testing"
)

// TestReplicateReqRoundTrip: the subscribe request carries its offset and
// the subscriber's epoch losslessly, and malformed offsets are typed bad
// requests.
func TestReplicateReqRoundTrip(t *testing.T) {
	for _, from := range []int64{0, 8, 1 << 20, 1<<62 + 12345} {
		for _, epoch := range []uint64{0, 1, 1 << 50} {
			got, gotEpoch, err := DecodeReplicateReq(ReplicateFields(from, epoch))
			if err != nil {
				t.Fatalf("DecodeReplicateReq(%d, %d): %v", from, epoch, err)
			}
			if got != from || gotEpoch != epoch {
				t.Fatalf("(%d, %d) round-tripped to (%d, %d)", from, epoch, got, gotEpoch)
			}
		}
	}
	bad := [][][]byte{
		{},                        // no fields
		{UvarintField(8)},         // retired offset-only form
		{{1}, {2}, {3}},           // three fields
		{{0xFF}},                  // unterminated uvarint
		{{0xFF}, UvarintField(0)}, // unterminated offset
		{UvarintField(8), {0xFF}}, // unterminated epoch
		{{0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0x01}, UvarintField(0)}, // > MaxInt64
	}
	for i, fields := range bad {
		if _, _, err := DecodeReplicateReq(fields); !errors.Is(err, ErrBadRequest) {
			t.Errorf("bad request %d decoded to %v, want ErrBadRequest", i, err)
		}
	}
}

// TestReplDataRoundTrip: a catch-up REPDATA frame carries offset, raw
// group bytes and the primary's epoch, with zero trace context, under a
// CRC-32C that survives encode/decode.
func TestReplDataRoundTrip(t *testing.T) {
	raw := []byte("pretend-commit-group-bytes")
	d, err := DecodeReplData(ReplDataTraceFields(4096, raw, 7, 0, 0))
	if err != nil {
		t.Fatal(err)
	}
	if d.Start != 4096 || !bytes.Equal(d.Raw, raw) || d.Epoch != 7 {
		t.Fatalf("round trip = (%d, %q, %d), want (4096, %q, 7)", d.Start, d.Raw, d.Epoch, raw)
	}
	if d.Trace != 0 || d.CommitNS != 0 {
		t.Fatalf("untraced frame decoded trace context: %+v", d)
	}
	// Empty payload is legal (it cannot happen on a live stream, but the
	// decoder must not care).
	if d, err = DecodeReplData(ReplDataTraceFields(8, nil, 0, 0, 0)); err != nil || len(d.Raw) != 0 {
		t.Fatalf("empty round trip = (%q, %v)", d.Raw, err)
	}
}

// TestReplDataTraceForm: the frame carries the originating commit's trace
// ID and publication time under the CRC, and a flipped bit in either is
// caught.
func TestReplDataTraceForm(t *testing.T) {
	raw := []byte("group-bytes")
	fields := ReplDataTraceFields(4096, raw, 7, 0xabcdef, 1722222222000000000)
	if len(fields) != 6 {
		t.Fatalf("traced REPDATA has %d fields, want 6", len(fields))
	}
	d, err := DecodeReplData(fields)
	if err != nil {
		t.Fatal(err)
	}
	if d.Start != 4096 || !bytes.Equal(d.Raw, raw) || d.Epoch != 7 ||
		d.Trace != 0xabcdef || d.CommitNS != 1722222222000000000 {
		t.Fatalf("traced round trip = %+v", d)
	}
	for _, field := range []int{3, 4} {
		fields := ReplDataTraceFields(4096, raw, 7, 0xabcdef, 1722222222000000000)
		fields[field] = append([]byte(nil), fields[field]...)
		fields[field][0] ^= 0x01
		if _, err := DecodeReplData(fields); !errors.Is(err, ErrRemoteCorrupt) {
			t.Errorf("flipped field %d decoded to %v, want ErrRemoteCorrupt", field, err)
		}
	}
}

// TestReplDataDetectsCorruption: any bit flip — in the offset, the
// payload, the epoch, or the trailer itself — fails the checksum with
// CodeCorrupt, which tells the follower to drop the link and resubscribe
// rather than apply the bytes (or fence on a damaged epoch).
func TestReplDataDetectsCorruption(t *testing.T) {
	raw := []byte("pretend-commit-group-bytes")
	for _, flip := range []struct {
		name  string
		field int
		bit   byte
	}{
		{"offset", 0, 0x01},
		{"payload", 1, 0x80},
		{"epoch", 2, 0x01},
		{"trailer", 5, 0x10},
	} {
		fields := ReplDataTraceFields(4096, raw, 99, 0, 0)
		fields[flip.field] = append([]byte(nil), fields[flip.field]...)
		fields[flip.field][0] ^= flip.bit
		_, err := DecodeReplData(fields)
		if !errors.Is(err, ErrRemoteCorrupt) {
			t.Errorf("flipped %s decoded to %v, want ErrRemoteCorrupt", flip.name, err)
		}
		var we *WireError
		if !errors.As(err, &we) || we.Code != CodeCorrupt {
			t.Errorf("flipped %s: %v is not a CodeCorrupt WireError", flip.name, err)
		}
	}
}

// TestReplDataMalformed: structurally damaged frames are CodeBadFrame,
// never a panic.
func TestReplDataMalformed(t *testing.T) {
	g := ReplDataTraceFields(8, []byte("raw"), 1, 2, 3)
	bad := [][][]byte{
		{},                                     // no fields
		g[:2],                                  // missing everything after the payload
		g[:5],                                  // missing trailer
		{g[0], g[1], g[2], g[3], g[4], {1}},    // short trailer
		{{0xFF}, g[1], g[2], g[3], g[4], g[5]}, // unterminated offset
		{{0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0x01}, g[1], g[2], g[3], g[4], g[5]}, // oversize offset
		{g[0], g[1], {0xFF}, g[3], g[4], g[5]},                                                       // unterminated epoch
		{g[0], g[1], g[2], {0xFF}, g[4], g[5]},                                                       // unterminated trace ID
		{g[0], g[1], g[2], g[3], {0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0x01}, g[5]}, // oversize commit time
	}
	for i, fields := range bad {
		if _, err := DecodeReplData(fields); !errors.Is(err, ErrBadFrame) {
			t.Errorf("malformed frame %d decoded to %v, want ErrBadFrame", i, err)
		}
	}
}

// TestHeartbeatRoundTrip: the keepalive carries the primary's durable end
// and epoch.
func TestHeartbeatRoundTrip(t *testing.T) {
	got, epoch, err := DecodeHeartbeat(HeartbeatFields(1<<40, 12))
	if err != nil || got != 1<<40 || epoch != 12 {
		t.Fatalf("heartbeat round trip = (%d, %d, %v)", got, epoch, err)
	}
	for i, fields := range [][][]byte{{}, {UvarintField(1)}, {{0xFF}, {1}}, {{1}, {2}, {3}}, {UvarintField(1), {0xFF}}} {
		if _, _, err := DecodeHeartbeat(fields); !errors.Is(err, ErrBadFrame) {
			t.Errorf("malformed heartbeat %d decoded to %v, want ErrBadFrame", i, err)
		}
	}
}

// TestPromoteRoundTrip: the PROMOTE request's two faces — the empty
// self-promote order and the [epoch, newPrimary] fence notification.
func TestPromoteRoundTrip(t *testing.T) {
	epoch, addr, fence, err := DecodePromote(nil)
	if err != nil || fence || epoch != 0 || addr != "" {
		t.Fatalf("self-promote decode = (%d, %q, %v, %v)", epoch, addr, fence, err)
	}
	epoch, addr, fence, err = DecodePromote(FenceFields(9, "10.0.0.2:7070"))
	if err != nil || !fence || epoch != 9 || addr != "10.0.0.2:7070" {
		t.Fatalf("fence decode = (%d, %q, %v, %v)", epoch, addr, fence, err)
	}
	for i, fields := range [][][]byte{{{1}}, {{1}, {2}, {3}}, {{0xFF}, []byte("x")}} {
		if _, _, _, err := DecodePromote(fields); !errors.Is(err, ErrBadRequest) {
			t.Errorf("malformed PROMOTE %d decoded to %v, want ErrBadRequest", i, err)
		}
	}
}

// TestHealthCarriesReplicationFields: the extended HEALTH payload round-
// trips the role, epoch, follower flag and durable offset next to the
// original fields, and a short frame stays a typed decode error.
func TestHealthCarriesReplicationFields(t *testing.T) {
	want := Health{
		Poisoned: true, ReadOnly: true,
		InFlight: 3, Sessions: 9, Roots: 42,
		Uptime: 90210, DurableEnd: 1 << 33, AckedEnd: 1 << 33,
		Role: RoleFenced, Epoch: 4,
	}
	got, err := DecodeHealth(HealthFields(want))
	if err != nil {
		t.Fatal(err)
	}
	if got != want {
		t.Fatalf("Health round trip = %+v, want %+v", got, want)
	}
	if _, err := DecodeHealth(HealthFields(want)[:5]); !errors.Is(err, ErrBadFrame) {
		t.Errorf("short HEALTH decoded to %v, want ErrBadFrame", err)
	}
}

// TestReplDataLegacyForm: REPDATA has one accepted shape, the 6-field
// [off, raw, epoch, trace, commit-ns, crc]. The retired 3-field
// (pre-failover) and 4-field (pre-trace) frames are refused with a typed
// ErrBadFrame even when their checksum is valid.
func TestReplDataLegacyForm(t *testing.T) {
	off, raw, ep := UvarintField(4096), []byte("group-bytes"), UvarintField(7)
	withCRC := func(fields ...[]byte) [][]byte {
		var sum uint32
		for _, f := range fields {
			sum = crc32.Update(sum, replCRCTable, f)
		}
		return append(fields, binary.LittleEndian.AppendUint32(nil, sum))
	}
	for name, fields := range map[string][][]byte{
		"3 fields": withCRC(off, raw),
		"4 fields": withCRC(off, raw, ep),
	} {
		_, err := DecodeReplData(fields)
		var we *WireError
		if !errors.Is(err, ErrBadFrame) || !errors.As(err, &we) {
			t.Errorf("REPDATA %s: err = %v (%T), want a *WireError for ErrBadFrame", name, err, err)
		}
	}
}
