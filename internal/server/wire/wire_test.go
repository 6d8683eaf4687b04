package wire

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"reflect"
	"strings"
	"testing"
	"time"

	"dbpl/internal/persist/iofault"
	"dbpl/internal/types"
)

func TestFrameRoundTrip(t *testing.T) {
	cases := []struct {
		op     byte
		fields [][]byte
	}{
		{OpPing, nil},
		{OpGet, [][]byte{[]byte("one")}},
		{OpPut, [][]byte{[]byte("name"), {0x01, 0x02, 0x00}}},
		{OpValues, [][]byte{{}, []byte("x"), bytes.Repeat([]byte{7}, 300)}},
		{OpError, [][]byte{{byte(CodeNoRoot)}, []byte("no such root")}},
	}
	var buf bytes.Buffer
	for _, c := range cases {
		if err := WriteFrame(&buf, 0, c.op, c.fields...); err != nil {
			t.Fatalf("WriteFrame(%#x): %v", c.op, err)
		}
	}
	r := bytes.NewReader(buf.Bytes())
	for _, c := range cases {
		op, fields, err := ReadFrame(r, 0)
		if err != nil {
			t.Fatalf("ReadFrame: %v", err)
		}
		if op != c.op {
			t.Errorf("op = %#x, want %#x", op, c.op)
		}
		if len(fields) != len(c.fields) {
			t.Fatalf("fields = %d, want %d", len(fields), len(c.fields))
		}
		for i := range fields {
			if !bytes.Equal(fields[i], c.fields[i]) {
				t.Errorf("field %d = %v, want %v", i, fields[i], c.fields[i])
			}
		}
	}
	if _, _, err := ReadFrame(r, 0); err != io.EOF {
		t.Errorf("trailing ReadFrame err = %v, want io.EOF", err)
	}
}

func TestReadFrameRejectsMalformed(t *testing.T) {
	frame := func(payload []byte) []byte {
		var hdr [4]byte
		binary.BigEndian.PutUint32(hdr[:], uint32(len(payload)))
		return append(hdr[:], payload...)
	}
	cases := []struct {
		name string
		in   []byte
		want error
	}{
		{"empty payload", frame(nil), ErrBadFrame},
		{"oversize claim", func() []byte {
			var hdr [4]byte
			binary.BigEndian.PutUint32(hdr[:], 1<<30)
			return hdr[:]
		}(), ErrTooLarge},
		{"truncated payload", frame([]byte{OpPing, 5, 'a'})[:5], ErrBadFrame},
		{"field length past end", frame([]byte{OpGet, 200, 1}), ErrBadFrame},
		{"bad uvarint prefix", frame(append([]byte{OpGet}, bytes.Repeat([]byte{0xFF}, 10)...)), ErrBadFrame},
	}
	for _, c := range cases {
		_, _, err := ReadFrame(bytes.NewReader(c.in), 1<<20)
		if !errors.Is(err, c.want) {
			t.Errorf("%s: err = %v, want %v", c.name, err, c.want)
		}
	}
	// Truncated header: a transport error, not a WireError.
	if _, _, err := ReadFrame(bytes.NewReader([]byte{0, 0}), 0); err != io.ErrUnexpectedEOF {
		t.Errorf("truncated header err = %v, want io.ErrUnexpectedEOF", err)
	}
}

func TestWriteFrameRefusesOversize(t *testing.T) {
	err := WriteFrame(io.Discard, 16, OpPut, bytes.Repeat([]byte{1}, 64))
	if !errors.Is(err, ErrTooLarge) {
		t.Fatalf("err = %v, want ErrTooLarge", err)
	}
}

func TestTypeFieldRoundTrip(t *testing.T) {
	for _, src := range []string{
		"Int", "{Name: String, Age: Int}", "List[Set[Bool]]",
		"forall t <= {A: Int} . t -> t", "rec t . {Next: t}",
	} {
		want := types.MustParse(src)
		b, err := MarshalType(want)
		if err != nil {
			t.Fatalf("MarshalType(%s): %v", src, err)
		}
		got, err := UnmarshalType(b)
		if err != nil {
			t.Fatalf("UnmarshalType(%s): %v", src, err)
		}
		if !types.Equal(got, want) {
			t.Errorf("round trip of %s = %s", src, got)
		}
	}
}

func TestWireErrorTaxonomy(t *testing.T) {
	for code, sentinel := range map[Code]error{
		CodeBadFrame:      ErrBadFrame,
		CodeTooLarge:      ErrTooLarge,
		CodeUnknownOp:     ErrUnknownOp,
		CodeBadRequest:    ErrBadRequest,
		CodeNoRoot:        ErrNoRoot,
		CodeNotConforming: ErrNotConforming,
		CodeInconsistent:  ErrInconsistent,
		CodeTxn:           ErrTxn,
		CodeIO:            ErrRemoteIO,
		CodeCorrupt:       ErrRemoteCorrupt,
		CodeShutdown:      ErrShutdown,
		CodeInternal:      ErrInternal,
	} {
		err := DecodeError(ErrorFields(&WireError{Code: code, Msg: "detail"}))
		if !errors.Is(err, sentinel) {
			t.Errorf("%s does not unwrap to its sentinel", code)
		}
		if !strings.Contains(err.Error(), "detail") {
			t.Errorf("%s drops the message: %v", code, err)
		}
	}
	// Remote I/O failures stay in the local persistence taxonomy.
	ioErr := DecodeError(ErrorFields(&WireError{Code: CodeIO, Msg: "write /x: disk died"}))
	if !errors.Is(ioErr, iofault.ErrIOFailed) {
		t.Error("CodeIO does not unwrap to iofault.ErrIOFailed")
	}
	if errors.Is(DecodeError(ErrorFields(&WireError{Code: CodeNoRoot})), iofault.ErrIOFailed) {
		t.Error("CodeNoRoot wrongly unwraps to iofault.ErrIOFailed")
	}
	// A malformed error payload is itself diagnosed, not trusted.
	if err := DecodeError([][]byte{{1, 2, 3}}); !errors.Is(err, ErrBadFrame) {
		t.Errorf("malformed error payload: %v", err)
	}
}

// TestCodeExhaustiveness walks the code table and enforces the
// taxonomy's three invariants: a real String() (no code(N) fallback), a
// distinct sentinel, and a lossless encode→decode round trip. Appending
// a Code without its table row fails here, not in a production error
// path.
func TestCodeExhaustiveness(t *testing.T) {
	seenStr := make(map[string]Code)
	seenSent := make(map[error]Code)
	for code := CodeBadFrame; int(code) < NumCodes; code++ {
		s := code.String()
		if s == "" || strings.HasPrefix(s, "code(") {
			t.Errorf("Code %d has no real String(): %q", code, s)
		}
		if prev, dup := seenStr[s]; dup {
			t.Errorf("Code %d and %d share the String %q", prev, code, s)
		}
		seenStr[s] = code

		sent := code.Sentinel()
		if sent == nil {
			t.Errorf("Code %d (%s) has no Sentinel", code, s)
			continue
		}
		if prev, dup := seenSent[sent]; dup {
			t.Errorf("Code %d and %d share a sentinel", prev, code)
		}
		seenSent[sent] = code

		we := &WireError{Code: code, Msg: "detail", RetryAfter: 1500 * time.Millisecond}
		err := DecodeError(ErrorFields(we))
		if !errors.Is(err, sent) {
			t.Errorf("%s does not survive the round trip to its sentinel", s)
		}
		var got *WireError
		if !errors.As(err, &got) {
			t.Fatalf("%s decoded to %T", s, err)
		}
		if got.Code != code || got.Msg != "detail" || got.RetryAfter != we.RetryAfter {
			t.Errorf("%s round trip = {%v %q %v}, want {%v %q %v}",
				s, got.Code, got.Msg, got.RetryAfter, code, "detail", we.RetryAfter)
		}
	}
	// Outside the table: the fallback forms.
	for _, code := range []Code{0, Code(NumCodes), 0xFF} {
		if s := code.String(); s != fmt.Sprintf("code(%d)", byte(code)) {
			t.Errorf("unassigned Code %d has a real String %q", code, s)
		}
		if code.Sentinel() != ErrInternal {
			t.Errorf("unassigned Code %d does not map to ErrInternal", code)
		}
	}
}

// TestErrorFieldsRetryAfterOptional: the third error field is only
// present when a hint is set, and old two-field errors still decode.
func TestErrorFieldsRetryAfterOptional(t *testing.T) {
	if n := len(ErrorFields(&WireError{Code: CodeNoRoot, Msg: "m"})); n != 2 {
		t.Errorf("hintless error encoded %d fields, want 2", n)
	}
	if n := len(ErrorFields(&WireError{Code: CodeOverloaded, Msg: "m", RetryAfter: time.Millisecond})); n != 3 {
		t.Errorf("hinted error encoded %d fields, want 3", n)
	}
	err := DecodeError([][]byte{{byte(CodeNoRoot)}, []byte("old peer")})
	var we *WireError
	if !errors.As(err, &we) || we.RetryAfter != 0 {
		t.Errorf("two-field decode = %v, want RetryAfter 0", err)
	}
}

func TestHealthFieldsRoundTrip(t *testing.T) {
	for _, h := range []Health{
		{},
		{Poisoned: true, InFlight: 3, Sessions: 2, Roots: 41, Uptime: 90 * time.Second},
		{DurableEnd: 4096, AckedEnd: 8192}, // async: acked ahead of durable
	} {
		got, err := DecodeHealth(HealthFields(h))
		if err != nil {
			t.Fatalf("DecodeHealth(%+v): %v", h, err)
		}
		if got != h {
			t.Errorf("round trip = %+v, want %+v", got, h)
		}
	}
	// Malformed health payloads are diagnosed, not trusted.
	full := HealthFields(Health{})
	for name, fields := range map[string][][]byte{
		"too few fields":    full[:4],
		"too many fields":   append(append([][]byte(nil), full...), []byte{0}),
		"oversized flags":   append([][]byte{{1, 2}}, full[1:]...),
		"bad uvarint":       append([][]byte{{0}, {0x80}}, full[2:]...),
		"oversized role":    append(append([][]byte(nil), full[:7]...), []byte{0, 0}, full[8]),
		"bad epoch uvarint": append(append([][]byte(nil), full[:8]...), []byte{0x80}),
	} {
		if _, err := DecodeHealth(fields); !errors.Is(err, ErrBadFrame) {
			t.Errorf("%s: err = %v, want ErrBadFrame", name, err)
		}
	}
}

// TestHealthLegacyForms: HEALTH has one accepted shape, the 9-field
// payload. The retired six-field (pre-group-commit) and seven-field
// (pre-failover) payloads, read-only or writable, are refused with a
// typed ErrBadFrame rather than decoded with a derived role and epoch 0.
func TestHealthLegacyForms(t *testing.T) {
	for _, h := range []Health{
		{ReadOnly: true, InFlight: 1, Sessions: 2, Roots: 3, Uptime: 4, DurableEnd: 500, AckedEnd: 600},
		{Roots: 1},
	} {
		full := HealthFields(h)
		for _, n := range []int{6, 7} {
			_, err := DecodeHealth(full[:n])
			var we *WireError
			if !errors.Is(err, ErrBadFrame) || !errors.As(err, &we) {
				t.Errorf("%d-field HEALTH of %+v: err = %v (%T), want a *WireError for ErrBadFrame", n, h, err, err)
			}
		}
	}
}

func TestSplitFieldsAliasesInput(t *testing.T) {
	payload := []byte{1, 'a', 2, 'b', 'c', 0}
	fields, err := SplitFields(payload)
	if err != nil {
		t.Fatal(err)
	}
	want := [][]byte{[]byte("a"), []byte("bc"), {}}
	if !reflect.DeepEqual(fields, want) {
		t.Fatalf("fields = %q", fields)
	}
}

// TestOpcodeExhaustiveness walks every byte below TraceFlag against the
// opcode table: each row has a real, distinct name that its traced
// variant shares, sane arity bounds, and a frame that round-trips; every
// other byte names as op(0xNN). Response opcodes name too. The server
// side of the same walk is TestE2EOpcodeTable.
func TestOpcodeExhaustiveness(t *testing.T) {
	seen := map[string]byte{}
	for i := range Ops {
		op := byte(i)
		p, ok := Policy(op)
		name := OpName(op)
		if !ok {
			if want := fmt.Sprintf("op(%#x)", op); name != want {
				t.Errorf("unassigned opcode %#x names %q, want %q", op, name, want)
			}
			continue
		}
		if name != p.Name || name == "" || strings.HasPrefix(name, "op(") {
			t.Errorf("opcode %#x has no real OpName: %q", op, name)
		}
		if prev, dup := seen[name]; dup {
			t.Errorf("opcodes %#x and %#x share the name %q", prev, op, name)
		}
		seen[name] = op
		if got := OpName(op | TraceFlag); got != name {
			t.Errorf("traced opcode %#x names %q, want %q", op|TraceFlag, got, name)
		}
		if p.MinFields < 0 || p.MaxFields < p.MinFields {
			t.Errorf("%s arity [%d, %d] is empty", name, p.MinFields, p.MaxFields)
		}
		if p.CheckArity(p.MinFields) != nil || p.CheckArity(p.MaxFields) != nil {
			t.Errorf("%s refuses its own arity bounds", name)
		}
		if err := p.CheckArity(p.MaxFields + 1); !errors.Is(err, ErrBadRequest) {
			t.Errorf("%s with %d fields: err = %v, want ErrBadRequest", name, p.MaxFields+1, err)
		}

		// Encode → decode round trip for the opcode byte itself.
		var buf bytes.Buffer
		if err := WriteFrame(&buf, 0, op, []byte("f")); err != nil {
			t.Fatalf("WriteFrame(%s): %v", name, err)
		}
		got, _, err := ReadFrame(&buf, 0)
		if err != nil || got != op {
			t.Errorf("%s round trip = %#x, %v", name, got, err)
		}
	}
	if _, ok := Policy(TraceFlag); ok {
		t.Error("Policy accepts TraceFlag as a request opcode")
	}
	for _, op := range []byte{OpOK, OpValues, OpError, OpRepData, OpRepHeartbeat} {
		if s := OpName(op); strings.HasPrefix(s, "op(") {
			t.Errorf("response opcode %#x has no real OpName", op)
		}
	}
}

// TestTraceRoundTrip: AppendTrace and SplitTrace are inverses, untraced
// frames pass through unchanged, and malformed traced frames are typed
// protocol violations.
func TestTraceRoundTrip(t *testing.T) {
	fields := [][]byte{[]byte("name"), {1, 2, 3}}
	for _, trace := range []uint64{0, 1, 1 << 20, 1<<64 - 1} {
		op, traced := AppendTrace(OpPut, trace, fields)
		if op != OpPut|TraceFlag {
			t.Fatalf("AppendTrace op = %#x", op)
		}
		if len(traced) != len(fields)+1 {
			t.Fatalf("AppendTrace fields = %d, want %d", len(traced), len(fields)+1)
		}
		base, gotTrace, rest, wasTraced, err := SplitTrace(op, traced)
		if err != nil || !wasTraced || base != OpPut || gotTrace != trace {
			t.Fatalf("SplitTrace = (%#x, %d, traced=%v, %v), want (%#x, %d, true, nil)",
				base, gotTrace, wasTraced, err, OpPut, trace)
		}
		if !reflect.DeepEqual(rest, fields) {
			t.Errorf("SplitTrace rest = %q, want %q", rest, fields)
		}
	}

	// Untraced: identity, zero trace, traced=false.
	base, trace, rest, wasTraced, err := SplitTrace(OpGet, fields)
	if err != nil || wasTraced || base != OpGet || trace != 0 || !reflect.DeepEqual(rest, fields) {
		t.Errorf("untraced SplitTrace = (%#x, %d, traced=%v, %v)", base, trace, wasTraced, err)
	}

	// The traced frame survives the wire.
	op, traced := AppendTrace(OpGet, 777, [][]byte{[]byte("x")})
	var buf bytes.Buffer
	if err := WriteFrame(&buf, 0, op, traced...); err != nil {
		t.Fatal(err)
	}
	rop, rfields, err := ReadFrame(&buf, 0)
	if err != nil {
		t.Fatal(err)
	}
	if base, tr, rest, ok, err := SplitTrace(rop, rfields); err != nil || !ok || base != OpGet || tr != 777 || string(rest[0]) != "x" {
		t.Errorf("wire round trip = (%#x, %d, %q, %v, %v)", base, tr, rest, ok, err)
	}

	// Malformed traced frames: no fields at all, or a trace field that is
	// not exactly one uvarint.
	for name, bad := range map[string][][]byte{
		"no fields":      nil,
		"empty trace":    {{}},
		"trailing bytes": {{0x01, 0xFF}},
		"unterminated":   {bytes.Repeat([]byte{0x80}, 10)},
	} {
		if _, _, _, _, err := SplitTrace(OpGet|TraceFlag, bad); !errors.Is(err, ErrBadFrame) {
			t.Errorf("%s: err = %v, want ErrBadFrame", name, err)
		}
	}
}

// TestAppendTracedFrame: the single-pass traced-frame encoder is byte-
// identical to AppendFrame over AppendTrace's output (so the server's
// decoder cannot tell which path a client used), refuses oversize frames
// the same way, and costs zero allocations with a reused buffer — the
// client's stamping path depends on that (EXPERIMENTS.md E15).
func TestAppendTracedFrame(t *testing.T) {
	fields := [][]byte{[]byte("root"), {1, 2, 3, 4}}
	for _, trace := range []uint64{0, 1, 1 << 20, 1<<64 - 1} {
		op, tf := AppendTrace(OpPut, trace, fields)
		want, err := AppendFrame(nil, 0, op, tf...)
		if err != nil {
			t.Fatal(err)
		}
		got, err := AppendTracedFrame(nil, 0, OpPut, trace, fields...)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("trace %d: AppendTracedFrame differs from AppendFrame∘AppendTrace:\n%x\n%x", trace, got, want)
		}
	}

	// Oversize refusal, typed like AppendFrame's.
	if _, err := AppendTracedFrame(nil, 8, OpPut, 1, bytes.Repeat([]byte{'x'}, 64)); !errors.Is(err, ErrTooLarge) {
		t.Fatalf("oversize traced frame: err = %v, want ErrTooLarge", err)
	}

	// Zero allocations once the destination buffer has capacity.
	buf := make([]byte, 0, 256)
	allocs := testing.AllocsPerRun(100, func() {
		b, err := AppendTracedFrame(buf[:0], 0, OpPut, 0xDEADBEEF, fields...)
		if err != nil || len(b) == 0 {
			t.Fatal("encode failed")
		}
	})
	if allocs != 0 {
		t.Fatalf("AppendTracedFrame allocates %v times per frame, want 0", allocs)
	}
}
