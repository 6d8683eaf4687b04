package server_test

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"net"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"dbpl/client"
	"dbpl/internal/persist/intrinsic"
	"dbpl/internal/server"
	"dbpl/internal/server/wire"
	"dbpl/internal/types"
	"dbpl/internal/value"
)

// harness boots a server over a store at path on a throwaway port and
// tears it down with the graceful path.
type harness struct {
	t     *testing.T
	path  string
	store *intrinsic.Store
	srv   *server.Server
	addr  string
	done  chan error
	once  sync.Once
	// allowPoisoned lets stop tolerate the poisoned-write-path refusal of
	// Shutdown's final commit (tests that poison the server on purpose).
	allowPoisoned bool
}

func boot(t *testing.T, path string) *harness {
	return bootCfg(t, path, nil, server.Config{})
}

// stop drains the server and closes the store; idempotent (tests that
// stop explicitly also have it registered as a cleanup).
func (h *harness) stop() {
	h.t.Helper()
	h.once.Do(h.stopOnce)
}

func (h *harness) stopOnce() {
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := h.srv.Shutdown(ctx); err != nil && !errors.Is(err, intrinsic.ErrClosed) {
		if !(h.allowPoisoned && strings.Contains(err.Error(), "poisoned")) {
			h.t.Errorf("Shutdown: %v", err)
		}
	}
	select {
	case err := <-h.done:
		if err != nil && !errors.Is(err, server.ErrServerClosed) {
			h.t.Errorf("Serve: %v", err)
		}
	case <-time.After(5 * time.Second):
		h.t.Error("Serve did not return after Shutdown")
	}
	h.store.Close()
}

func dial(t *testing.T, h *harness, opts *client.Options) *client.Client {
	t.Helper()
	c, err := client.Dial(h.addr, opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	return c
}

var (
	personT   = types.MustParse("{Name: String}")
	employeeT = types.MustParse("{Name: String, Empno: Int, Dept: String}")
	deptT     = types.MustParse("{Dept: String, Floor: Int}")
)

func emp(name string, no int64, dept string) value.Value {
	return value.Rec("Name", value.String(name), "Empno", value.Int(no), "Dept", value.String(dept))
}

func namesOf(ps []client.Packed) []string {
	var out []string
	for _, p := range ps {
		if r, ok := p.Value.(*value.Record); ok {
			if n, ok := r.Get("Name"); ok {
				out = append(out, string(n.(value.String)))
			}
		}
	}
	sort.Strings(out)
	return out
}

// TestE2ERoundTrips drives the full verb set through the client package:
// PUT/GET with subtype-driven extraction, DELETE, NAMES, JOIN, and the
// error taxonomy for the common misuses.
func TestE2ERoundTrips(t *testing.T) {
	h := boot(t, filepath.Join(t.TempDir(), "e2e.log"))
	c := dial(t, h, nil)

	if err := c.Put("p1", value.Rec("Name", value.String("P1")), personT); err != nil {
		t.Fatal(err)
	}
	if err := c.Put("e1", emp("E1", 1, "Sales"), employeeT); err != nil {
		t.Fatal(err)
	}
	if err := c.Put("e2", emp("E2", 2, "Manuf"), employeeT); err != nil {
		t.Fatal(err)
	}
	if err := c.Put("d1", value.Rec("Dept", value.String("Sales"), "Floor", value.Int(3)), deptT); err != nil {
		t.Fatal(err)
	}

	// The paper's containment: Get[Employee] ⊆ Get[Person].
	emps, err := c.Get(employeeT)
	if err != nil {
		t.Fatal(err)
	}
	if got := namesOf(emps); !reflect.DeepEqual(got, []string{"E1", "E2"}) {
		t.Errorf("Get[Employee] = %v", got)
	}
	people, err := c.Get(personT)
	if err != nil {
		t.Fatal(err)
	}
	if got := namesOf(people); !reflect.DeepEqual(got, []string{"E1", "E2", "P1"}) {
		t.Errorf("Get[Person] = %v", got)
	}
	// Witnesses are the declared types.
	for _, p := range emps {
		if !types.Equal(p.Witness, employeeT) {
			t.Errorf("witness = %s, want %s", p.Witness, employeeT)
		}
	}

	// GetExpr parses the concrete syntax client-side.
	byExpr, err := c.GetExpr("{Name: String, Empno: Int, Dept: String}")
	if err != nil {
		t.Fatal(err)
	}
	if len(byExpr) != len(emps) {
		t.Errorf("GetExpr = %d results, want %d", len(byExpr), len(emps))
	}

	// JOIN of the employee and department extents (Figure 1 remotely).
	joined, err := c.Join(employeeT, deptT)
	if err != nil {
		t.Fatal(err)
	}
	foundJoined := false
	for _, m := range joined {
		r, ok := m.(*value.Record)
		if !ok {
			continue
		}
		if n, _ := r.Get("Name"); n != nil && value.Equal(n, value.String("E1")) {
			if f, _ := r.Get("Floor"); f != nil && value.Equal(f, value.Int(3)) {
				foundJoined = true
			}
		}
	}
	if !foundJoined {
		t.Errorf("JOIN missing {Name=E1, ..., Floor=3}; got %v", joined)
	}

	names, err := c.Names()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(names, []string{"d1", "e1", "e2", "p1"}) {
		t.Errorf("Names = %v", names)
	}

	existed, err := c.Delete("p1")
	if err != nil || !existed {
		t.Fatalf("Delete(p1) = %v, %v", existed, err)
	}
	existed, err = c.Delete("p1")
	if err != nil || existed {
		t.Fatalf("second Delete(p1) = %v, %v", existed, err)
	}

	// Taxonomy: misuse maps to typed wire errors.
	if err := c.Put("bad", value.Int(1), types.String); !errors.Is(err, wire.ErrNotConforming) {
		t.Errorf("non-conforming PUT: %v", err)
	}
	s, err := c.Begin()
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Commit(); err != nil {
		t.Fatal(err)
	}
	if err := s.Commit(); !errors.Is(err, client.ErrDone) {
		t.Errorf("double commit: %v", err)
	}
}

// TestE2ETransactions checks session isolation end to end: buffered
// writes are visible to the session (read-your-writes), invisible to
// other clients until COMMIT, and discarded by ABORT.
func TestE2ETransactions(t *testing.T) {
	h := boot(t, filepath.Join(t.TempDir(), "txn.log"))
	c := dial(t, h, nil)

	if err := c.Put("e1", emp("E1", 1, "Sales"), employeeT); err != nil {
		t.Fatal(err)
	}

	s, err := c.Begin()
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Put("e2", emp("E2", 2, "Manuf"), employeeT); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Delete("e1"); err != nil {
		t.Fatal(err)
	}

	// The session sees its overlay...
	inTxn, err := s.Get(employeeT)
	if err != nil {
		t.Fatal(err)
	}
	if got := namesOf(inTxn); !reflect.DeepEqual(got, []string{"E2"}) {
		t.Errorf("session view = %v, want [E2]", got)
	}
	sessionNames, err := s.Names()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(sessionNames, []string{"e2"}) {
		t.Errorf("session names = %v", sessionNames)
	}
	// ...while outside observers still see the committed state.
	outside, err := c.Get(employeeT)
	if err != nil {
		t.Fatal(err)
	}
	if got := namesOf(outside); !reflect.DeepEqual(got, []string{"E1"}) {
		t.Errorf("outside view during txn = %v, want [E1]", got)
	}

	if err := s.Commit(); err != nil {
		t.Fatal(err)
	}
	after, err := c.Get(employeeT)
	if err != nil {
		t.Fatal(err)
	}
	if got := namesOf(after); !reflect.DeepEqual(got, []string{"E2"}) {
		t.Errorf("after commit = %v, want [E2]", got)
	}

	// ABORT discards.
	s2, err := c.Begin()
	if err != nil {
		t.Fatal(err)
	}
	if err := s2.Put("e3", emp("E3", 3, "Sales"), employeeT); err != nil {
		t.Fatal(err)
	}
	if err := s2.Abort(); err != nil {
		t.Fatal(err)
	}
	final, err := c.Get(employeeT)
	if err != nil {
		t.Fatal(err)
	}
	if got := namesOf(final); !reflect.DeepEqual(got, []string{"E2"}) {
		t.Errorf("after abort = %v, want [E2]", got)
	}
}

// TestE2EReconnectAfterRestart mirrors the crash-matrix style of the
// persistence tests at the system level: commit through one server
// incarnation, shut it down, boot a second on the same log, and the
// client — redialing dead pool connections transparently — sees exactly
// the committed state. Uncommitted transactional writes die with the
// server.
func TestE2EReconnectAfterRestart(t *testing.T) {
	path := filepath.Join(t.TempDir(), "restart.log")
	h1 := boot(t, path)
	c := dial(t, h1, &client.Options{PoolSize: 1, RequestTimeout: 5 * time.Second})

	if err := c.Put("e1", emp("E1", 1, "Sales"), employeeT); err != nil {
		t.Fatal(err)
	}
	// A transaction left open across the restart must not survive.
	s, err := c.Begin()
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Put("ghost", emp("G", 9, "Ghost"), employeeT); err != nil {
		t.Fatal(err)
	}

	h1.stop()

	// Second incarnation on the same log, new port.
	h2 := boot(t, path)
	c2 := dial(t, h2, nil)
	got, err := c2.Get(employeeT)
	if err != nil {
		t.Fatal(err)
	}
	if names := namesOf(got); !reflect.DeepEqual(names, []string{"E1"}) {
		t.Errorf("recovered state = %v, want [E1]", names)
	}

	// The old client's pooled conn is dead; against the old address every
	// request now fails with a dial or transport error, not a hang.
	if _, err := c.Get(employeeT); err == nil {
		t.Error("Get against a stopped server succeeded")
	}
}

// TestE2EShutdownRefusesNewWork: after Shutdown begins, new connections
// are refused while the drain completes, and the final commit group makes
// the log reopenable at exactly the committed state.
func TestE2EShutdownRefusesNewWork(t *testing.T) {
	path := filepath.Join(t.TempDir(), "drain.log")
	h := boot(t, path)
	c := dial(t, h, nil)
	if err := c.Put("e1", emp("E1", 1, "Sales"), employeeT); err != nil {
		t.Fatal(err)
	}
	h.stop()

	if _, err := client.Dial(h.addr, &client.Options{DialTimeout: 500 * time.Millisecond}); err == nil {
		t.Error("Dial succeeded after shutdown")
	}

	st, err := intrinsic.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	r, ok := st.Root("e1")
	if !ok {
		t.Fatal("root e1 missing after shutdown")
	}
	if n, _ := r.Value.(*value.Record).Get("Name"); !value.Equal(n, value.String("E1")) {
		t.Errorf("recovered e1 = %s", r.Value)
	}
}

// TestE2EPipelining exercises the client's FIFO pipelining: many
// concurrent requests multiplexed over a single pooled connection all
// complete and match their own responses.
func TestE2EPipelining(t *testing.T) {
	h := boot(t, filepath.Join(t.TempDir(), "pipe.log"))
	c := dial(t, h, &client.Options{PoolSize: 1})
	for i := int64(0); i < 8; i++ {
		if err := c.Put("e"+string(rune('0'+i)), emp("E", i, "D"), employeeT); err != nil {
			t.Fatal(err)
		}
	}
	const callers = 16
	errs := make(chan error, callers)
	for i := 0; i < callers; i++ {
		go func() {
			ps, err := c.Get(employeeT)
			if err == nil && len(ps) != 8 {
				err = errors.New("wrong result size")
			}
			errs <- err
		}()
	}
	for i := 0; i < callers; i++ {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}
}

// TestE2EOversizeResponseTypedError: a GET whose response exceeds the
// server's frame limit is answered with a typed CodeTooLarge error on the
// live connection. The client surfaces it without retrying (the query
// ran exactly once), and the connection keeps serving requests.
func TestE2EOversizeResponseTypedError(t *testing.T) {
	h := bootCfg(t, filepath.Join(t.TempDir(), "oversize.log"), nil, server.Config{MaxFrame: 4096})
	c := dial(t, h, nil)
	pad := strings.Repeat("x", 200)
	for i := 0; i < 40; i++ {
		if err := c.Put(fmt.Sprintf("r%02d", i), value.Rec("Name", value.String(pad)), personT); err != nil {
			t.Fatal(err)
		}
	}

	_, err := c.Get(personT)
	if !errors.Is(err, client.ErrTooLarge) {
		t.Fatalf("oversize GET: err = %v, want client.ErrTooLarge", err)
	}
	if n, _ := h.srv.Telemetry().Snapshot().Counter(`dbpl_server_requests_total{op="GET"}`); n != 1 {
		t.Fatalf(`requests_total{op="GET"} = %d, want 1 (the client must not retry)`, n)
	}

	// On one raw connection: the oversize answer is an error frame, and
	// the same connection then answers PING.
	conn, err := net.Dial("tcp", h.addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	conn.SetDeadline(time.Now().Add(5 * time.Second))
	tf, err := wire.MarshalType(personT)
	if err != nil {
		t.Fatal(err)
	}
	r := bufio.NewReader(conn)
	if err := wire.WriteFrame(conn, 0, wire.OpGet, tf); err != nil {
		t.Fatal(err)
	}
	op, fields, err := wire.ReadFrame(r, 0)
	if err != nil {
		t.Fatalf("oversize GET on a raw connection: %v", err)
	}
	if op != wire.OpError || !errors.Is(wire.DecodeError(fields), wire.ErrTooLarge) {
		t.Fatalf("oversize GET answered op %#x fields %q, want a too-large error frame", op, fields)
	}
	if err := wire.WriteFrame(conn, 0, wire.OpPing); err != nil {
		t.Fatal(err)
	}
	if op, _, err := wire.ReadFrame(r, 0); err != nil || op != wire.OpOK {
		t.Fatalf("PING after the oversize GET: op %#x, err %v; want OK on the same connection", op, err)
	}
	if n, _ := h.srv.Telemetry().Snapshot().Counter(`dbpl_server_errors_total{code="too-large"}`); n != 2 {
		t.Errorf(`errors_total{code="too-large"} = %d, want 2`, n)
	}
}
