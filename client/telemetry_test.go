package client

import (
	"errors"
	"net"
	"testing"
	"time"

	"dbpl/internal/server/wire"
	"dbpl/internal/types"
	"dbpl/internal/value"
)

// TestClientMetricsCountAttemptsAndRetries: the client's own registry
// reflects what the retry machinery did — one attempt per wire frame
// (retries included) under the opcode's own label, retries classified by
// cause, and the backoff sleep accumulated.
func TestClientMetricsCountAttemptsAndRetries(t *testing.T) {
	srv := &shedServer{sheds: 2, hint: 5 * time.Millisecond}
	addr := fakeServer(t, srv.serve)
	c, err := Dial(addr, &Options{PoolSize: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	if err := c.Put("k", value.Int(1), nil); err != nil {
		t.Fatal(err)
	}
	if _, err := c.CreateIndex("Name"); err != nil {
		t.Fatal(err)
	}
	if _, err := c.ExplainGet(types.Int); err != nil {
		t.Fatal(err)
	}

	snap := c.Telemetry().Snapshot()
	for label, want := range map[string]uint64{
		"PUT":         3, // 2 sheds + success
		"PING":        1, // Dial's liveness check
		"CREATEINDEX": 1,
		"EXPLAIN":     1,
	} {
		if got, _ := snap.Counter(`dbpl_client_attempts_total{op="` + label + `"}`); got != want {
			t.Errorf("%s attempts = %d, want %d", label, got, want)
		}
	}
	if got, _ := snap.Counter(`dbpl_client_retries_total{cause="overloaded"}`); got != 2 {
		t.Errorf("overloaded retries = %d, want 2", got)
	}
	if got, _ := snap.Counter("dbpl_client_backoff_ns_total"); got < uint64(2*srv.hint) {
		t.Errorf("backoff total = %dns, want >= %v (the hint twice)", got, 2*srv.hint)
	}
}

// TestTraceMismatchCondemnsConn: a non-error response echoing the wrong
// trace ID, or none, means the FIFO pipeline has desynchronized — the
// only safe move is to fail the connection. The failure must classify as
// ErrConnLost so the retry wrapper redials rather than surfacing a
// confusing frame error. An untraced ERROR is the server refusing a
// request it could not parse: its typed error is delivered, and a
// too-large refusal is not retried.
func TestTraceMismatchCondemnsConn(t *testing.T) {
	for _, tc := range []struct {
		name    string
		respond func(conn net.Conn, trace uint64) error
		want    error
		retries uint64
	}{
		{"wrong echo", func(conn net.Conn, trace uint64) error {
			return reply(conn, trace+1, wire.OpOK)
		}, ErrConnLost, 2},
		{"no echo", func(conn net.Conn, _ uint64) error {
			return wire.WriteFrame(conn, 0, wire.OpOK)
		}, ErrConnLost, 2},
		{"untraced error", func(conn net.Conn, _ uint64) error {
			return wire.WriteFrame(conn, 0, wire.OpError,
				wire.ErrorFields(&wire.WireError{Code: wire.CodeTooLarge, Msg: "request too large"})...)
		}, ErrTooLarge, 0},
	} {
		t.Run(tc.name, func(t *testing.T) {
			addr := fakeServer(t, func(conn net.Conn) {
				defer conn.Close()
				for {
					op, trace, _, err := readRequest(conn)
					if err != nil {
						return
					}
					if op == wire.OpPing { // Dial must succeed
						err = reply(conn, trace, wire.OpOK)
					} else {
						err = tc.respond(conn, trace)
					}
					if err != nil {
						return
					}
				}
			})
			c, err := Dial(addr, &Options{PoolSize: 1, RetryPolicy: RetryPolicy{
				MaxAttempts: 3, BaseDelay: time.Millisecond, MaxDelay: 2 * time.Millisecond}})
			if err != nil {
				t.Fatal(err)
			}
			defer c.Close()

			if err := c.Put("k", value.Int(1), nil); !errors.Is(err, tc.want) {
				t.Fatalf("Put = %v, want %v", err, tc.want)
			}
			if got, _ := c.Telemetry().Snapshot().Counter(`dbpl_client_retries_total{cause="conn_lost"}`); got != tc.retries {
				t.Errorf("conn_lost retries = %d, want %d", got, tc.retries)
			}
		})
	}
}
