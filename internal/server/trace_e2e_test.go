package server_test

import (
	"fmt"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"dbpl/internal/server"
	"dbpl/internal/telemetry/trace"
)

// findSpan returns the index of the first span named name under parent
// (or anywhere when parent < 0), or -1.
func findSpan(d trace.Data, name string, parent trace.SpanID) int {
	for i, sp := range d.Spans {
		if sp.Name == name && (parent < 0 || sp.Parent == parent) {
			return i
		}
	}
	return -1
}

// assertNested fails unless every span's interval lies within its
// parent's — the tree invariant the whole feature rests on.
func assertNested(t *testing.T, d trace.Data) {
	t.Helper()
	for i, sp := range d.Spans {
		if i == 0 {
			continue
		}
		if sp.Parent < 0 || int(sp.Parent) >= len(d.Spans) {
			t.Fatalf("span %q has out-of-range parent %d", sp.Name, sp.Parent)
		}
		p := d.Spans[sp.Parent]
		if sp.Start < p.Start || sp.Start+sp.Dur > p.Start+p.Dur {
			t.Errorf("span %q [%v,%v] escapes parent %q [%v,%v]",
				sp.Name, sp.Start, sp.Start+sp.Dur, p.Name, p.Start, p.Start+p.Dur)
		}
	}
}

// TestTraceGroupCommitSpans: every durability mode commits through the
// one committer, so under group and per-commit durability alike a traced
// PUT's tree must show queue-wait, stage, fsync and publish as distinct,
// correctly nested children of its commit span, with the children's
// total inside the parent's duration. A traced GET records its planner
// decision and the chosen access path.
func TestTraceGroupCommitSpans(t *testing.T) {
	for _, tc := range []struct {
		name string
		cfg  server.Config
	}{
		{"group", server.Config{Durability: server.DurGroup, GroupMaxDelay: 2 * time.Millisecond}},
		{"per-commit", server.Config{Durability: server.DurPerCommit}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := tc.cfg
			cfg.TraceSampleRate = 1
			h := bootCfg(t, filepath.Join(t.TempDir(), "store.log"), nil, cfg)
			c := dial(t, h, nil)

			const writers = 8
			var wg sync.WaitGroup
			errs := make([]error, writers)
			for i := 0; i < writers; i++ {
				wg.Add(1)
				go func(i int) {
					defer wg.Done()
					errs[i] = c.Put(fmt.Sprintf("w%d", i), emp(fmt.Sprintf("W%d", i), int64(i), "Ops"), employeeT)
				}(i)
			}
			wg.Wait()
			for i, err := range errs {
				if err != nil {
					t.Fatalf("put %d: %v", i, err)
				}
			}
			if _, err := c.Get(personT); err != nil {
				t.Fatal(err)
			}

			ds, err := c.Traces()
			if err != nil {
				t.Fatal(err)
			}
			checked := 0
			var get *trace.Data
			for i, d := range ds {
				if d.Op == "GET" {
					get = &ds[i]
				}
				if d.Op != "PUT" {
					continue
				}
				assertNested(t, d)
				ci := findSpan(d, "commit", 0)
				if ci < 0 {
					t.Fatalf("PUT trace %#x has no commit span: %+v", d.ID, d.Spans)
				}
				commit := d.Spans[ci]
				var childSum time.Duration
				for _, name := range []string{"queue-wait", "stage", "fsync", "publish"} {
					si := findSpan(d, name, trace.SpanID(ci))
					if si < 0 {
						t.Fatalf("PUT trace %#x commit span lacks %q child: %+v", d.ID, name, d.Spans)
					}
					childSum += d.Spans[si].Dur
				}
				// The four phases are sequential, disjoint sub-intervals of
				// the commit span, so their sum cannot exceed it.
				if childSum > commit.Dur {
					t.Errorf("trace %#x: children sum %v > commit span %v", d.ID, childSum, commit.Dur)
				}
				// queue-wait is the time before the batch began; the fsync
				// comes strictly after it.
				qw, fs := d.Spans[findSpan(d, "queue-wait", trace.SpanID(ci))], d.Spans[findSpan(d, "fsync", trace.SpanID(ci))]
				if qw.Start+qw.Dur > fs.Start {
					t.Errorf("trace %#x: queue-wait ends %v after fsync starts %v", d.ID, qw.Start+qw.Dur, fs.Start)
				}
				checked++
			}
			if checked == 0 {
				t.Fatalf("no PUT traces retained; got %d traces", len(ds))
			}
			if get == nil {
				t.Fatalf("no GET trace retained; got %d traces", len(ds))
			}
			assertNested(t, *get)
			if findSpan(*get, "plan", 0) < 0 {
				t.Fatalf("GET trace has no plan span: %+v", get.Spans)
			}
			found := false
			for _, sp := range get.Spans {
				if strings.HasPrefix(sp.Name, "exec:") {
					found = true
				}
			}
			if !found {
				t.Fatalf("GET trace has no exec span: %+v", get.Spans)
			}
		})
	}
}

// TestTraceFollowerLink: a commit traced on the primary yields a linked
// REPL-APPLY trace on the follower (via the REPDATA trace field) and a
// positive commit-to-apply delay observation.
func TestTraceFollowerLink(t *testing.T) {
	dir := t.TempDir()
	hp := bootCfg(t, filepath.Join(dir, "primary.log"), nil,
		server.Config{TraceSampleRate: 1})
	hf := bootCfg(t, filepath.Join(dir, "follower.log"), nil, server.Config{
		Follow: hp.addr, ReplHeartbeat: 50 * time.Millisecond, TraceSampleRate: 1})
	cp := dial(t, hp, nil)

	var linked *trace.Data
	deadline := time.Now().Add(5 * time.Second)
	for i := 0; linked == nil && time.Now().Before(deadline); i++ {
		if err := cp.Put(fmt.Sprintf("r%d", i), emp("R", int64(i), "Lab"), employeeT); err != nil {
			t.Fatal(err)
		}
		time.Sleep(20 * time.Millisecond)
		for _, d := range hf.srv.Traces() {
			if d.Op == "REPL-APPLY" && d.Link != 0 {
				linked = &d
				break
			}
		}
	}
	if linked == nil {
		t.Fatal("follower never recorded a linked REPL-APPLY trace")
	}
	assertNested(t, *linked)
	if findSpan(*linked, "apply", 0) < 0 || findSpan(*linked, "publish", 0) < 0 {
		t.Fatalf("apply trace lacks apply/publish spans: %+v", linked.Spans)
	}
	// The link is the primary's commit trace: the primary retained that
	// very tree.
	found := false
	for _, d := range hp.srv.Traces() {
		if d.ID == linked.Link && d.Op == "PUT" {
			found = true
			break
		}
	}
	if !found {
		t.Fatalf("primary has no PUT trace with ID %#x (the follower's link)", linked.Link)
	}

	cf := dial(t, hf, nil)
	snap, err := cf.Stats()
	if err != nil {
		t.Fatal(err)
	}
	hist, ok := snap.Histogram("dbpl_repl_apply_delay_seconds")
	if !ok || hist.Count == 0 {
		t.Fatalf("apply-delay histogram count = %d, want > 0", hist.Count)
	}
	if hist.Sum <= 0 {
		t.Errorf("apply-delay sum = %d ns, want positive (apply happens after commit)", hist.Sum)
	}
	if hist.Exemplars == nil {
		t.Error("apply-delay histogram has no exemplar trace IDs")
	}
}

// TestTraceSamplingOff: the default configuration runs with tracing
// disabled — no trees retained, TRACES answers empty, and the request
// path carries only the nil-trace no-ops (the E20 overhead story).
func TestTraceSamplingOff(t *testing.T) {
	h := boot(t, filepath.Join(t.TempDir(), "store.log"))
	c := dial(t, h, nil)
	if err := c.Put("alice", emp("Alice", 1, "Sales"), employeeT); err != nil {
		t.Fatal(err)
	}
	if ds, err := c.Traces(); err != nil || len(ds) != 0 {
		t.Fatalf("Traces() = %d traces, err %v; want 0, nil", len(ds), err)
	}
	if h.srv.Traces() != nil {
		t.Fatal("server retains traces with sampling off")
	}
	// Commit exemplars still carry the client's wire trace ID, so a slow
	// write stays findable even without span trees.
	snap, err := c.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if hist, ok := snap.Histogram(`dbpl_server_request_seconds{op="PUT"}`); !ok || hist.Exemplars == nil {
		t.Error("PUT latency histogram lost its wire-trace exemplar with sampling off")
	}
}
