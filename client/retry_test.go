package client

import (
	"bytes"
	"errors"
	"net"
	"sync"
	"testing"
	"time"

	"dbpl/internal/server/wire"
	"dbpl/internal/value"
)

// shedServer refuses the first n post-dial requests with CodeOverloaded
// (carrying hint as the retry-after), then answers OK. It records every
// frame it sees.
type shedServer struct {
	mu     sync.Mutex
	sheds  int
	hint   time.Duration
	frames []recordedFrame
}

type recordedFrame struct {
	op     byte
	fields [][]byte
}

func (s *shedServer) serve(conn net.Conn) {
	defer conn.Close()
	for {
		op, trace, fields, err := readRequest(conn)
		if err != nil {
			return
		}
		s.mu.Lock()
		if op != wire.OpPing { // ignore Dial's liveness ping
			cp := make([][]byte, len(fields))
			for i, f := range fields {
				cp[i] = bytes.Clone(f)
			}
			s.frames = append(s.frames, recordedFrame{op, cp})
		}
		shed := op != wire.OpPing && s.sheds > 0
		if shed {
			s.sheds--
		}
		hint := s.hint
		s.mu.Unlock()
		switch {
		case shed:
			err = reply(conn, trace, wire.OpError,
				wire.ErrorFields(&wire.WireError{Code: wire.CodeOverloaded,
					Msg: "shed", RetryAfter: hint})...)
		case op == wire.OpDelete || op == wire.OpCreateIndex:
			err = reply(conn, trace, wire.OpOK, []byte{1})
		case op == wire.OpExplain:
			err = reply(conn, trace, wire.OpOK, []byte("plan"))
		default:
			err = reply(conn, trace, wire.OpOK)
		}
		if err != nil {
			return
		}
	}
}

func (s *shedServer) recorded() []recordedFrame {
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]recordedFrame(nil), s.frames...)
}

// TestRetryOnOverloadHonorsHint: an overload shed is retried after at
// least the server's retry-after hint, and the call ultimately succeeds.
func TestRetryOnOverloadHonorsHint(t *testing.T) {
	srv := &shedServer{sheds: 2, hint: 120 * time.Millisecond}
	addr := fakeServer(t, srv.serve)
	c, err := Dial(addr, &Options{PoolSize: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	start := time.Now()
	if err := c.Put("k", value.Int(1), nil); err != nil {
		t.Fatalf("Put through 2 sheds: %v", err)
	}
	// Two sheds, each waited >= hint before the retry.
	if el := time.Since(start); el < 2*srv.hint {
		t.Errorf("retried call took %v, want >= %v (the hint twice)", el, 2*srv.hint)
	}
	if got := len(srv.recorded()); got != 3 {
		t.Errorf("server saw %d PUT frames, want 3 (2 sheds + success)", got)
	}
}

// TestRetryBudgetExhaustionReturnsOverloaded: when every attempt is shed,
// the caller gets the typed ErrOverloaded back — dispatchable, not
// swallowed into a generic retry failure.
func TestRetryBudgetExhaustionReturnsOverloaded(t *testing.T) {
	srv := &shedServer{sheds: 1 << 30}
	addr := fakeServer(t, srv.serve)
	c, err := Dial(addr, &Options{
		PoolSize: 1,
		RetryPolicy: RetryPolicy{
			MaxAttempts: 3,
			BaseDelay:   time.Millisecond,
			MaxDelay:    2 * time.Millisecond,
			Budget:      50 * time.Millisecond,
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	err = c.Put("k", value.Int(1), nil)
	if !errors.Is(err, ErrOverloaded) {
		t.Fatalf("exhausted retries = %v, want ErrOverloaded", err)
	}
	if got := len(srv.recorded()); got != 3 {
		t.Errorf("server saw %d attempts, want exactly MaxAttempts=3", got)
	}
}

// TestRetriedWritesCarrySameKey: every attempt of one Put resends the
// identical 16-byte idempotency key (dedup depends on it), and distinct
// writes get distinct keys.
func TestRetriedWritesCarrySameKey(t *testing.T) {
	srv := &shedServer{sheds: 2}
	addr := fakeServer(t, srv.serve)
	c, err := Dial(addr, &Options{PoolSize: 1, RetryPolicy: RetryPolicy{
		BaseDelay: time.Millisecond, MaxDelay: 2 * time.Millisecond}})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	if err := c.Put("k", value.Int(1), nil); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Delete("k"); err != nil {
		t.Fatal(err)
	}

	frames := srv.recorded()
	if len(frames) != 4 { // 3 PUT attempts + 1 DELETE
		t.Fatalf("server saw %d frames, want 4", len(frames))
	}
	keyOf := func(f recordedFrame) []byte {
		last := f.fields[len(f.fields)-1]
		if len(last) != 16 {
			t.Fatalf("op %#x key field is %d bytes, want 16", f.op, len(last))
		}
		return last
	}
	putKey := keyOf(frames[0])
	for i := 1; i < 3; i++ {
		if frames[i].op != wire.OpPut {
			t.Fatalf("frame %d op = %#x, want retried PUT", i, frames[i].op)
		}
		if !bytes.Equal(keyOf(frames[i]), putKey) {
			t.Errorf("retry %d changed the idempotency key: %x vs %x", i, keyOf(frames[i]), putKey)
		}
	}
	if frames[3].op != wire.OpDelete {
		t.Fatalf("frame 3 op = %#x, want DELETE", frames[3].op)
	}
	if bytes.Equal(keyOf(frames[3]), putKey) {
		t.Error("DELETE reused the PUT's idempotency key")
	}
}

// TestRetryDisabledSurfacesFirstError: MaxAttempts < 1 turns the wrapper
// off — one attempt, the raw typed error back.
func TestRetryDisabledSurfacesFirstError(t *testing.T) {
	srv := &shedServer{sheds: 1 << 30}
	addr := fakeServer(t, srv.serve)
	c, err := Dial(addr, &Options{PoolSize: 1, RetryPolicy: RetryPolicy{MaxAttempts: -1}})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := c.Put("k", value.Int(1), nil); !errors.Is(err, ErrOverloaded) {
		t.Fatalf("err = %v, want ErrOverloaded", err)
	}
	if got := len(srv.recorded()); got != 1 {
		t.Errorf("server saw %d attempts with retries disabled, want 1", got)
	}
}

// TestRequestTimeoutSemanticsUnderRetry: the documented RequestTimeout
// contract — 0 means the 30s default, negative disables — must survive
// the retry wrapper, with the timeout bounding each attempt.
func TestRequestTimeoutSemanticsUnderRetry(t *testing.T) {
	// The accessor itself is the contract.
	if got := (Options{}).requestTimeout(); got != 30*time.Second {
		t.Errorf("requestTimeout(0) = %v, want the 30s default", got)
	}
	if got := (Options{RequestTimeout: -1}).requestTimeout(); got != 0 {
		t.Errorf("requestTimeout(-1) = %v, want 0 (disabled)", got)
	}
	if got := (Options{RequestTimeout: time.Millisecond}).requestTimeout(); got != time.Millisecond {
		t.Errorf("requestTimeout(1ms) = %v", got)
	}

	// Per-attempt: a black-hole server times out every attempt, so a
	// 2-attempt call takes >= 2 timeouts and returns ErrDeadline.
	var responsive sync.Map
	responsive.Store("on", true)
	addr := fakeServer(t, func(conn net.Conn) {
		defer conn.Close()
		if on, _ := responsive.Load("on"); on.(bool) {
			answerPings(conn)
			return
		}
		buf := make([]byte, 1024)
		for {
			if _, err := conn.Read(buf); err != nil {
				return
			}
		}
	})
	c, err := Dial(addr, &Options{
		PoolSize:       1,
		RequestTimeout: 100 * time.Millisecond,
		RetryPolicy: RetryPolicy{MaxAttempts: 2,
			BaseDelay: time.Millisecond, MaxDelay: 2 * time.Millisecond},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	responsive.Store("on", false)
	c.mu.Lock()
	c.pool[0].fail(errors.New("test: condemned")) // force redial onto the black hole
	c.mu.Unlock()

	start := time.Now()
	err = c.Ping()
	el := time.Since(start)
	if !errors.Is(err, ErrDeadline) {
		t.Fatalf("Ping against a black hole = %v, want ErrDeadline", err)
	}
	if el < 200*time.Millisecond {
		t.Errorf("2 attempts took %v, want >= 200ms (the timeout bounds each attempt)", el)
	}
	if el > 2*time.Second {
		t.Errorf("2 attempts took %v, want well under a second", el)
	}

	// RequestTimeout = -1 disables the deadline: a slow server does not
	// kill the call.
	slow := fakeServer(t, func(conn net.Conn) {
		defer conn.Close()
		first := true
		for {
			_, trace, _, err := readRequest(conn)
			if err != nil {
				return
			}
			if !first {
				time.Sleep(300 * time.Millisecond)
			}
			first = false
			if err := reply(conn, trace, wire.OpOK); err != nil {
				return
			}
		}
	})
	c2, err := Dial(slow, &Options{PoolSize: 1, RequestTimeout: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer c2.Close()
	if err := c2.Ping(); err != nil {
		t.Fatalf("Ping with RequestTimeout=-1 against a slow server: %v", err)
	}
}
