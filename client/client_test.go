package client

import (
	"errors"
	"net"
	"sync/atomic"
	"testing"
	"time"

	"dbpl/internal/server/wire"
)

// fakeServer accepts one connection and hands it to serve; the wire
// protocol is spoken by hand so the client's transport behavior is tested
// without a real server behind it.
func fakeServer(t testing.TB, serve func(net.Conn)) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			go serve(conn)
		}
	}()
	return ln.Addr().String()
}

// readRequest reads one request frame and strips its trace, as a real
// server does.
func readRequest(conn net.Conn) (op byte, trace uint64, fields [][]byte, err error) {
	rawOp, rawFields, err := wire.ReadFrame(conn, 0)
	if err != nil {
		return 0, 0, nil, err
	}
	op, trace, fields, _, err = wire.SplitTrace(rawOp, rawFields)
	return op, trace, fields, err
}

// reply answers a request, echoing its trace ID as a real server does.
func reply(conn net.Conn, trace uint64, op byte, fields ...[]byte) error {
	frame, err := wire.AppendTracedFrame(nil, 0, op, trace, fields...)
	if err == nil {
		_, err = conn.Write(frame)
	}
	return err
}

// answerPings responds OK to every frame it reads, forever.
func answerPings(conn net.Conn) {
	defer conn.Close()
	for {
		_, trace, _, err := readRequest(conn)
		if err != nil {
			return
		}
		if err := reply(conn, trace, wire.OpOK); err != nil {
			return
		}
	}
}

// TestRequestTimeoutKillsConn: a server that swallows requests must not
// wedge the caller — the request fails with ErrDeadline, the connection
// is condemned, and the pool redials transparently on next use.
func TestRequestTimeoutKillsConn(t *testing.T) {
	var responsive atomic.Bool
	responsive.Store(true)
	addr := fakeServer(t, func(conn net.Conn) {
		if responsive.Load() {
			answerPings(conn)
			return
		}
		// Swallow everything, answer nothing.
		defer conn.Close()
		buf := make([]byte, 1024)
		for {
			if _, err := conn.Read(buf); err != nil {
				return
			}
		}
	})
	c, err := Dial(addr, &Options{PoolSize: 1, RequestTimeout: 100 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	responsive.Store(false) // the redial after this lands on the black hole
	// Kill the live conn so the next request redials to the black hole.
	c.mu.Lock()
	c.pool[0].fail(errors.New("test: condemned"))
	c.mu.Unlock()

	start := time.Now()
	if err := c.Ping(); !errors.Is(err, ErrDeadline) {
		t.Fatalf("Ping against a black hole = %v, want ErrDeadline", err)
	}
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Errorf("deadline took %v, want ~100ms", elapsed)
	}

	responsive.Store(true)
	if err := c.Ping(); err != nil {
		t.Fatalf("Ping after redial: %v", err)
	}
}

// TestPoolRedialsDeadSlots: every pooled connection dying (server
// restart) is invisible to callers beyond the failed in-flight requests.
func TestPoolRedialsDeadSlots(t *testing.T) {
	addr := fakeServer(t, answerPings)
	c, err := Dial(addr, &Options{PoolSize: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	for i := 0; i < 4; i++ { // touch both slots
		if err := c.Ping(); err != nil {
			t.Fatal(err)
		}
	}
	c.mu.Lock()
	for _, cn := range c.pool {
		if cn != nil {
			cn.fail(errors.New("test: server restarted"))
		}
	}
	c.mu.Unlock()
	for i := 0; i < 4; i++ {
		if err := c.Ping(); err != nil {
			t.Fatalf("Ping %d after restart: %v", i, err)
		}
	}
}

// TestUnsolicitedResponseCondemnsConn: a server pushing frames nobody
// asked for is a protocol violation, not a crash.
func TestUnsolicitedResponseCondemnsConn(t *testing.T) {
	addr := fakeServer(t, func(conn net.Conn) {
		defer conn.Close()
		// Answer the Dial-time ping, then inject garbage.
		_, trace, _, err := readRequest(conn)
		if err != nil {
			return
		}
		reply(conn, trace, wire.OpOK)
		reply(conn, trace, wire.OpOK) // unsolicited
		// Hold the conn open so the client reader sees the frame.
		time.Sleep(2 * time.Second)
	})
	c, err := Dial(addr, &Options{PoolSize: 1, RequestTimeout: time.Second})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	deadline := time.Now().Add(time.Second)
	for {
		c.mu.Lock()
		cn := c.pool[0]
		c.mu.Unlock()
		if cn != nil && cn.isDead() {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("unsolicited response did not condemn the connection")
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestRemoteErrorsKeepTheTaxonomy: an OpError response surfaces as the
// typed wire error, and the connection stays usable (an application
// error is not a transport error).
func TestRemoteErrorsKeepTheTaxonomy(t *testing.T) {
	reqs := 0
	addr := fakeServer(t, func(conn net.Conn) {
		defer conn.Close()
		for {
			_, trace, _, err := readRequest(conn)
			if err != nil {
				return
			}
			reqs++
			if reqs == 2 { // the post-Dial request gets the error
				reply(conn, trace, wire.OpError,
					wire.ErrorFields(&wire.WireError{Code: wire.CodeNoRoot, Msg: "no root \"x\""})...)
				continue
			}
			reply(conn, trace, wire.OpOK)
		}
	})
	c, err := Dial(addr, &Options{PoolSize: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, err := c.Names(); !errors.Is(err, wire.ErrNoRoot) {
		t.Fatalf("err = %v, want wire.ErrNoRoot", err)
	}
	if err := c.Ping(); err != nil {
		t.Fatalf("connection unusable after an application error: %v", err)
	}
}

// failWriteConn wraps a net.Conn so the one armed write forwards its bytes
// to the peer, then waits for release and reports failure — modeling a
// write error on a frame the server nevertheless received and answered.
type failWriteConn struct {
	net.Conn
	arm     atomic.Bool
	wrote   chan struct{}
	release chan struct{}
}

func (f *failWriteConn) Write(p []byte) (int, error) {
	if !f.arm.Load() {
		return f.Conn.Write(p)
	}
	f.arm.Store(false)
	if _, err := f.Conn.Write(p); err != nil {
		return 0, err
	}
	close(f.wrote)
	<-f.release
	return 0, errors.New("test: injected write failure")
}

// TestWriteFailureKeepsWonResponse: when a request's response wins the
// race with the write error's fail delivery, roundTrip must return that
// successful response — not op 0 with a nil error, which callers would
// report as a bogus "unexpected response opcode 0x0".
func TestWriteFailureKeepsWonResponse(t *testing.T) {
	addr := fakeServer(t, answerPings)
	nc, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	fw := &failWriteConn{Conn: nc, wrote: make(chan struct{}), release: make(chan struct{})}
	cn := &conn{nc: fw, maxFrame: wire.MaxFrame}
	go cn.readLoop()

	fw.arm.Store(true)
	type res struct {
		op  byte
		err error
	}
	done := make(chan res, 1)
	go func() {
		op, _, err := cn.roundTrip(5*time.Second, wire.OpPing)
		done <- res{op, err}
	}()

	<-fw.wrote
	// The slot was enqueued before the write, so pending draining to zero
	// means the reader has matched the response to our request. Only then
	// let the write failure land: the drained result is the won response.
	deadline := time.Now().Add(2 * time.Second)
	for {
		cn.mu.Lock()
		n := len(cn.pending)
		cn.mu.Unlock()
		if n == 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("reader never delivered the response")
		}
		time.Sleep(time.Millisecond)
	}
	close(fw.release)
	r := <-done
	if r.err != nil || r.op != wire.OpOK {
		t.Fatalf("roundTrip = op %#x, err %v; want the won OpOK response", r.op, r.err)
	}
	if !cn.isDead() {
		t.Error("connection must still be condemned after the write failure")
	}
}
