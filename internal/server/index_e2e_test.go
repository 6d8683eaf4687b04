package server_test

import (
	"errors"
	"fmt"
	"net"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"dbpl/internal/server/wire"
)

// TestE2EIndexLifecycle drives the index-administration opcodes through
// the client: create (idempotent), queries stay correct while the index
// exists, EXPLAIN renders both plan kinds, drop (reports existence).
func TestE2EIndexLifecycle(t *testing.T) {
	h := boot(t, filepath.Join(t.TempDir(), "idx.log"))
	c := dial(t, h, nil)

	for i := 0; i < 8; i++ {
		name := fmt.Sprintf("emp%d", i)
		if err := c.Put(name, emp(name, int64(i), "Lab"), employeeT); err != nil {
			t.Fatal(err)
		}
	}
	before, err := c.Get(employeeT)
	if err != nil {
		t.Fatal(err)
	}

	created, err := c.CreateIndex("Empno")
	if err != nil || !created {
		t.Fatalf("CreateIndex = (%v, %v), want (true, nil)", created, err)
	}
	if again, err := c.CreateIndex("Empno"); err != nil || again {
		t.Fatalf("second CreateIndex = (%v, %v), want (false, nil)", again, err)
	}

	// The index must be invisible to results: same members, same order.
	after, err := c.Get(employeeT)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(namesOf(before), namesOf(after)) {
		t.Errorf("GET diverged after CreateIndex: %v vs %v", namesOf(before), namesOf(after))
	}
	// Writes keep maintaining it.
	if err := c.Put("emp8", emp("emp8", 8, "Sales"), employeeT); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Delete("emp0"); err != nil {
		t.Fatal(err)
	}
	got, err := c.Get(employeeT)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 8 {
		t.Errorf("after put+delete: %d members, want 8", len(got))
	}

	// EXPLAIN renders both plan kinds without executing anything.
	plan, err := c.ExplainGet(employeeT)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"get path=", "cost{extent=", " index=", "candidates="} {
		if !strings.Contains(plan, want) {
			t.Errorf("ExplainGet %q missing %q", plan, want)
		}
	}
	jplan, err := c.ExplainJoin(employeeT, deptT)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(jplan, "join path=") {
		t.Errorf("ExplainJoin %q missing join path", jplan)
	}

	existed, err := c.DropIndex("Empno")
	if err != nil || !existed {
		t.Fatalf("DropIndex = (%v, %v), want (true, nil)", existed, err)
	}
	if again, err := c.DropIndex("Empno"); err != nil || again {
		t.Fatalf("second DropIndex = (%v, %v), want (false, nil)", again, err)
	}
}

// TestE2EIndexDDLRefusedInTxn: index DDL is not transactional; inside
// BEGIN it must be refused with the txn code and leave no definition.
func TestE2EIndexDDLRefusedInTxn(t *testing.T) {
	h := boot(t, filepath.Join(t.TempDir(), "idxtxn.log"))

	raw, err := net.Dial("tcp", h.addr)
	if err != nil {
		t.Fatal(err)
	}
	defer raw.Close()
	roundTrip := func(op byte, fields ...[]byte) (byte, [][]byte) {
		t.Helper()
		if err := wire.WriteFrame(raw, 0, op, fields...); err != nil {
			t.Fatal(err)
		}
		respOp, respFields, err := wire.ReadFrame(raw, 0)
		if err != nil {
			t.Fatal(err)
		}
		return respOp, respFields
	}
	if op, _ := roundTrip(wire.OpBegin); op != wire.OpOK {
		t.Fatalf("BEGIN: op=%#x", op)
	}
	for _, op := range []byte{wire.OpCreateIndex, wire.OpDropIndex} {
		respOp, respFields := roundTrip(op, []byte("Empno"))
		if respOp != wire.OpError {
			t.Fatalf("%s inside txn: op=%#x, want OpError", wire.OpName(op), respOp)
		}
		if err := wire.DecodeError(respFields); !errors.Is(err, wire.ErrTxn) {
			t.Errorf("%s inside txn: %v, want ErrTxn", wire.OpName(op), err)
		}
	}
	if op, _ := roundTrip(wire.OpAbort); op != wire.OpOK {
		t.Fatalf("ABORT: op=%#x", op)
	}

	// Nothing leaked outside the refused transaction.
	c := dial(t, h, nil)
	if existed, err := c.DropIndex("Empno"); err != nil || existed {
		t.Errorf("DropIndex after refused DDL = (%v, %v), want (false, nil)", existed, err)
	}
}

// TestE2EIndexSurvivesRestart: the definition is durable (an 'X' record
// in the commit group) and the index rebuilds from the committed roots on
// reopen — so a restarted server still has it, with correct results.
func TestE2EIndexSurvivesRestart(t *testing.T) {
	path := filepath.Join(t.TempDir(), "idxdur.log")
	h := boot(t, path)
	c := dial(t, h, nil)
	if err := c.Put("alice", emp("Alice", 1, "Sales"), employeeT); err != nil {
		t.Fatal(err)
	}
	if created, err := c.CreateIndex("Dept"); err != nil || !created {
		t.Fatalf("CreateIndex = (%v, %v)", created, err)
	}
	if err := c.Put("bob", emp("Bob", 2, "Lab"), employeeT); err != nil {
		t.Fatal(err)
	}
	c.Close()
	h.stop()

	h2 := boot(t, path)
	c2 := dial(t, h2, nil)
	// The definition survived: re-declaring reports "already exists".
	if created, err := c2.CreateIndex("Dept"); err != nil || created {
		t.Fatalf("CreateIndex after restart = (%v, %v), want (false, nil)", created, err)
	}
	got, err := c2.Get(employeeT)
	if err != nil {
		t.Fatal(err)
	}
	if want := []string{"Alice", "Bob"}; !reflect.DeepEqual(namesOf(got), want) {
		t.Errorf("GET after restart = %v, want %v", namesOf(got), want)
	}
}

// TestStatsPlannerCounters: the planner's decisions and the index
// maintenance work surface in the STATS snapshot — the satellite's
// observability requirement. Uses pre-resolved series only.
func TestStatsPlannerCounters(t *testing.T) {
	h := boot(t, filepath.Join(t.TempDir(), "idxstats.log"))
	c := dial(t, h, nil)

	if created, err := c.CreateIndex("Empno"); err != nil || !created {
		t.Fatalf("CreateIndex = (%v, %v)", created, err)
	}
	for i := 0; i < 6; i++ {
		name := fmt.Sprintf("emp%d", i)
		if err := c.Put(name, emp(name, int64(i), "Lab"), employeeT); err != nil {
			t.Fatal(err)
		}
	}
	const gets = 5
	for i := 0; i < gets; i++ {
		if _, err := c.Get(employeeT); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := c.Join(employeeT, deptT); err != nil {
		t.Fatal(err)
	}

	snap, err := c.Stats()
	if err != nil {
		t.Fatal(err)
	}
	var chosen uint64
	for _, path := range []string{"extent", "index"} {
		n, _ := snap.Counter(`dbpl_plan_chosen_total{path="` + path + `"}`)
		chosen += n
	}
	if chosen < gets {
		t.Errorf("plan_chosen_total sums to %d, want >= %d (one per GET)", chosen, gets)
	}
	nested, _ := snap.Counter(`dbpl_plan_join_total{path="nested"}`)
	partition, _ := snap.Counter(`dbpl_plan_join_total{path="partition"}`)
	if nested+partition < 1 {
		t.Errorf("plan_join_total sums to %d, want >= 1", nested+partition)
	}
	if touched, _ := snap.Counter("dbpl_index_entries_touched_total"); touched < 6 {
		t.Errorf("index_entries_touched_total = %d, want >= 6 (each PUT maintains the index)", touched)
	}
	if defs, _ := snap.Gauge("dbpl_index_defs"); defs != 1 {
		t.Errorf("index_defs gauge = %d, want 1", defs)
	}
	if extents, _ := snap.Gauge("dbpl_index_extents"); extents != 1 {
		t.Errorf("index_extents gauge = %d, want 1 (every member the same type)", extents)
	}
	// The planner's learning loop is visible too: every executed GET
	// observed its path latency.
	var observed uint64
	for _, path := range []string{"extent", "index"} {
		if hist, ok := snap.Histogram(`dbpl_plan_path_seconds{path="` + path + `"}`); ok {
			observed += hist.Count
		}
	}
	if observed < gets {
		t.Errorf("plan_path_seconds observations = %d, want >= %d", observed, gets)
	}
	// The new opcodes have their own pre-resolved request series.
	if n, _ := snap.Counter(`dbpl_server_requests_total{op="CREATEINDEX"}`); n != 1 {
		t.Errorf(`requests_total{op="CREATEINDEX"} = %d, want 1`, n)
	}
}
