package server_test

import (
	"encoding/json"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"dbpl/internal/server"
	"dbpl/internal/server/wire"
	"dbpl/internal/telemetry"
)

// TestStatsOpcodeEndToEnd drives real traffic through a real client and
// asserts the STATS snapshot accounts for it: per-opcode request counters
// and latency histograms, commit metrics, error-code counters, and the
// gauges — all decoded from one binary frame.
func TestStatsOpcodeEndToEnd(t *testing.T) {
	h := boot(t, filepath.Join(t.TempDir(), "store.log"))
	c := dial(t, h, nil)

	if err := c.Put("alice", emp("Alice", 1, "Sales"), employeeT); err != nil {
		t.Fatal(err)
	}
	if err := c.Put("bob", emp("Bob", 2, "Lab"), employeeT); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Get(personT); err != nil {
		t.Fatal(err)
	}

	// Provoke one classified server-side error: GET with no type image is
	// a bad request, counted under its code.
	raw, err := net.Dial("tcp", h.addr)
	if err != nil {
		t.Fatal(err)
	}
	defer raw.Close()
	if err := wire.WriteFrame(raw, 0, wire.OpGet); err != nil {
		t.Fatal(err)
	}
	if op, _, err := wire.ReadFrame(raw, 0); err != nil || op != wire.OpError {
		t.Fatalf("bare GET: op=%#x err=%v, want OpError", op, err)
	}

	snap, err := c.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if got, _ := snap.Counter(`dbpl_server_requests_total{op="PUT"}`); got != 2 {
		t.Errorf(`requests_total{op="PUT"} = %d, want 2`, got)
	}
	if got, _ := snap.Counter(`dbpl_server_requests_total{op="GET"}`); got < 2 {
		t.Errorf(`requests_total{op="GET"} = %d, want >= 2 (client GET + bare GET)`, got)
	}
	if hist, ok := snap.Histogram(`dbpl_server_request_seconds{op="PUT"}`); !ok || hist.Count != 2 {
		t.Errorf(`request_seconds{op="PUT"} count = %d, want 2 (every request timed)`, hist.Count)
	}
	if got, _ := snap.Counter(`dbpl_server_errors_total{code="bad-request"}`); got == 0 {
		t.Error("bad request was not counted under its error code")
	}
	commits, _ := snap.Counter("dbpl_server_commits_total")
	if commits < 2 {
		t.Errorf("commits_total = %d, want >= 2 (each Put is a commit group)", commits)
	}
	if hist, ok := snap.Histogram("dbpl_server_commit_seconds"); !ok || hist.Count != commits {
		t.Errorf("commit_seconds count = %d, want %d (every commit timed)", hist.Count, commits)
	}
	if hist, ok := snap.Histogram("dbpl_server_commit_group_ops"); !ok || hist.Sum < 2 {
		t.Errorf("commit_group_ops sum = %d, want >= 2 ops across groups", hist.Sum)
	}
	if got, _ := snap.Gauge("dbpl_server_roots"); got != 2 {
		t.Errorf("roots gauge = %d, want 2", got)
	}
	if got, _ := snap.Gauge("dbpl_server_sessions"); got < 1 {
		t.Errorf("sessions gauge = %d, want >= 1 (this very connection)", got)
	}
	if got, _ := snap.Gauge("dbpl_server_uptime_ns"); got <= 0 {
		t.Errorf("uptime gauge = %d, want > 0", got)
	}
	// STATS counts itself: the snapshot was taken during the STATS request,
	// so in-flight is at least 1 at capture time... except STATS bypasses
	// admission and never touches the in-flight gauge. What must hold is
	// that the STATS request itself shows up on the next snapshot.
	snap2, err := c.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if got, _ := snap2.Counter(`dbpl_server_requests_total{op="STATS"}`); got < 1 {
		t.Errorf(`requests_total{op="STATS"} = %d, want >= 1`, got)
	}
}

// TestTraceReachesSlowLog: a negative threshold records every request, so
// the client's wire-propagated trace IDs must land in the ring — the
// whole point of the extension is correlating a client call site with a
// server-side slow operation.
func TestTraceReachesSlowLog(t *testing.T) {
	h := bootCfg(t, filepath.Join(t.TempDir(), "store.log"), nil,
		server.Config{SlowOpThreshold: -1})
	c := dial(t, h, nil)

	if err := c.Put("alice", emp("Alice", 1, "Sales"), employeeT); err != nil {
		t.Fatal(err)
	}

	ops := h.srv.SlowOps()
	if len(ops) == 0 {
		t.Fatal("negative threshold recorded nothing")
	}
	var put *telemetry.SlowOp
	for i := range ops {
		if ops[i].Op == "PUT" {
			put = &ops[i]
			break
		}
	}
	if put == nil {
		t.Fatalf("no PUT in the slow log: %+v", ops)
	}
	if put.Trace == 0 {
		t.Error("PUT entry lost its client trace ID")
	}
	if put.Session == "" {
		t.Error("PUT entry has no session address")
	}
	if put.Duration <= 0 {
		t.Errorf("PUT duration = %v, want > 0", put.Duration)
	}
	if put.Time.IsZero() || time.Since(put.Time) > time.Minute {
		t.Errorf("PUT timestamp %v is not recent", put.Time)
	}

	// An untraced request (as a follower's REPLICATE or a fence PROMOTE
	// is sent) is answered untraced, and its entry records trace 0 rather
	// than inventing one.
	raw, err := net.Dial("tcp", h.addr)
	if err != nil {
		t.Fatal(err)
	}
	defer raw.Close()
	if err := wire.WriteFrame(raw, 0, wire.OpNames); err != nil {
		t.Fatal(err)
	}
	if op, _, err := wire.ReadFrame(raw, 0); err != nil || op != wire.OpOK {
		t.Fatalf("untraced NAMES: op=%#x err=%v, want an untraced OpOK", op, err)
	}
	names := 0
	for _, op := range h.srv.SlowOps() {
		if op.Op == "NAMES" {
			names++
			if op.Trace != 0 {
				t.Errorf("untraced NAMES recorded trace %#x, want 0", op.Trace)
			}
		}
	}
	if names != 1 {
		t.Errorf("slow log holds %d NAMES entries, want 1", names)
	}
}

// TestHealthConsistentWithTelemetry is the tear-fix regression: HEALTH is
// now derived from one registry snapshot, so its fields must agree with
// the committed state — roots after a Put, a live session, real uptime.
func TestHealthConsistentWithTelemetry(t *testing.T) {
	h := boot(t, filepath.Join(t.TempDir(), "store.log"))
	c := dial(t, h, nil)

	if err := c.Put("alice", emp("Alice", 1, "Sales"), employeeT); err != nil {
		t.Fatal(err)
	}
	hl, err := c.Health()
	if err != nil {
		t.Fatal(err)
	}
	if hl.Poisoned {
		t.Error("healthy server reports poisoned")
	}
	if hl.Roots != 1 {
		t.Errorf("Health.Roots = %d, want 1", hl.Roots)
	}
	if hl.Sessions < 1 {
		t.Errorf("Health.Sessions = %d, want >= 1", hl.Sessions)
	}
	if hl.Uptime <= 0 {
		t.Errorf("Health.Uptime = %v, want > 0", hl.Uptime)
	}
	if hl.InFlight < 0 {
		t.Errorf("Health.InFlight = %d, want >= 0", hl.InFlight)
	}
}

// TestOpsHandlerEndpoints exercises the HTTP side: /metrics speaks the
// Prometheus text format with the right content type, /slowops is JSON,
// and the pprof index answers.
func TestOpsHandlerEndpoints(t *testing.T) {
	h := bootCfg(t, filepath.Join(t.TempDir(), "store.log"), nil,
		server.Config{SlowOpThreshold: -1})
	c := dial(t, h, nil)
	if err := c.Put("alice", emp("Alice", 1, "Sales"), employeeT); err != nil {
		t.Fatal(err)
	}

	web := httptest.NewServer(h.srv.OpsHandler())
	defer web.Close()

	get := func(path string) (int, string, string) {
		t.Helper()
		resp, err := http.Get(web.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return resp.StatusCode, resp.Header.Get("Content-Type"), string(body)
	}

	code, ctype, body := get("/metrics")
	if code != http.StatusOK {
		t.Fatalf("/metrics status %d", code)
	}
	if ctype != telemetry.PromContentType {
		t.Errorf("/metrics content type %q, want %q", ctype, telemetry.PromContentType)
	}
	for _, want := range []string{
		"# TYPE dbpl_server_requests_total counter",
		`dbpl_server_requests_total{op="PUT"} 1`,
		"dbpl_server_request_seconds_bucket",
		"dbpl_server_inflight",
	} {
		if !strings.Contains(body, want) {
			t.Errorf("/metrics missing %q", want)
		}
	}

	code, _, body = get("/slowops")
	if code != http.StatusOK {
		t.Fatalf("/slowops status %d", code)
	}
	var slow []telemetry.SlowOp
	if err := json.Unmarshal([]byte(body), &slow); err != nil {
		t.Fatalf("/slowops is not a JSON SlowOp array: %v\n%s", err, body)
	}
	if len(slow) == 0 {
		t.Error("/slowops empty despite a record-everything threshold")
	}

	if code, _, _ := get("/debug/pprof/"); code != http.StatusOK {
		t.Errorf("/debug/pprof/ status %d", code)
	}
}
