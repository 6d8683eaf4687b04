package main

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"

	"dbpl/client"
	"dbpl/internal/core"
	"dbpl/internal/dynamic"
	"dbpl/internal/index"
	"dbpl/internal/persist/codec"
	"dbpl/internal/persist/intrinsic"
	"dbpl/internal/plan"
	"dbpl/internal/relation"
	"dbpl/internal/server"
	"dbpl/internal/server/wire"
	"dbpl/internal/telemetry"
	rtrace "dbpl/internal/telemetry/trace"
	"dbpl/internal/types"
	"dbpl/internal/value"
)

// The traced run. Its per-layer numbers come from three sources, each
// named in README.md next to the metric:
//
//   - the workload's live loop, alternating untraced and traced parts in
//     the order U T T U, the traced ones with the server's span sampling
//     at 1 (trace.overhead_pct is the difference, and the server's spans
//     and telemetry come from the traced parts);
//   - a single-goroutine replay of the seed's operations through each
//     layer's public functions, wrapped in the benchmark's own spans
//     (rtrace, the server's span type) — the only way to split encode
//     from fsync, which the server's append-fsync span does not;
//   - a single-client probe of a served replay store, for the server
//     layers the workload's own traffic does not reach.
//
// Everything the replay counts is deterministic for a seed: those are the
// (exact) metrics.

// tracedCfg is the server configuration of every traced server. The ring
// keeps its default 256 traces: a larger ring holds megabytes of spans,
// which slows the garbage collector's pace and makes traced requests
// faster than untraced ones.
var tracedCfg = server.Config{TraceSampleRate: 1}

// replayWrites is how many one-key commits the layer replay stages per
// workload; recover-2k replays its whole history.
var replayWrites = map[string]int{"write-2k": 40, "read-2k": 20}

const (
	replayReads = 100 // read-mix operations replayed through the read layers
	replayJoins = 2   // JOINs added to them, so the JOIN layers are always timed
	probePuts   = 20  // PUTs the probe sends when the workload sends none
	probeGets   = 100 // GETs the probe sends when the workload sends none
)

// spanSet holds the benchmark's own span trees.
type spanSet struct{ traces []rtrace.Data }

// op starts one replayed operation's trace.
func (s *spanSet) op(name string) *rtrace.Trace {
	return rtrace.New(uint64(len(s.traces)+1), name)
}

// done retains a finished trace.
func (s *spanSet) done(tr *rtrace.Trace) {
	tr.Finish()
	s.traces = append(s.traces, tr.Data())
}

// timed runs f inside a child span of tr's root.
func timed(tr *rtrace.Trace, name string, f func()) {
	sp := tr.Start(0, name)
	f()
	tr.End(sp)
}

// durs returns the durations (ms) of every span named name.
func durs(traces []rtrace.Data, name string) []float64 {
	var out []float64
	for _, t := range traces {
		for _, sp := range t.Spans {
			if sp.Name == name {
				out = append(out, ms(sp.Dur))
			}
		}
	}
	return out
}

// spanSums returns, per trace of op, the summed duration (ms) of its spans
// named in names, and each name's durations.
func spanSums(traces []rtrace.Data, op string, names []string) (sums []float64, each map[string][]float64) {
	each = map[string][]float64{}
	for _, t := range traces {
		if t.Op != op {
			continue
		}
		sum := 0.0
		for _, sp := range t.Spans {
			for _, n := range names {
				if sp.Name == n || (strings.HasSuffix(n, ":") && strings.HasPrefix(sp.Name, n)) {
					sum += ms(sp.Dur)
					each[n] = append(each[n], ms(sp.Dur))
				}
			}
		}
		sums = append(sums, sum)
	}
	return sums, each
}

// histMeanMS is a duration histogram's mean in ms (0 when empty).
func histMeanMS(snap *telemetry.Snapshot, name string) (float64, uint64) {
	h, ok := snap.Histogram(name)
	if !ok || h.Count == 0 {
		return 0, 0
	}
	return float64(h.Sum) / float64(h.Count) / 1e6, h.Count
}

func counter(snap *telemetry.Snapshot, name string) uint64 {
	v, _ := snap.Counter(name)
	return v
}

// retries sums a client's retry counters.
func retries(c *client.Client) uint64 {
	var n uint64
	for _, nc := range c.Telemetry().Snapshot().Counters {
		if strings.HasPrefix(nc.Name, "dbpl_client_retries_total") {
			n += nc.Value
		}
	}
	return n
}

// replay is the single-goroutine layer replay over a private copy of the
// population.
type replay struct {
	pop   *Population
	model []*value.Record
	dyns  []*dynamic.Dynamic // current binding per root, as the server holds it
	dir   string
	path  string
	reg   *telemetry.Registry
	st    *intrinsic.Store
	db    *core.Database
	idx   *index.Set
	spans spanSet

	commits                                  int
	reachable, written, logBytes, touched    int64
	readResults, readBytes, readAllocs, gets int64
}

func newReplay(env Env) (*replay, error) {
	r := &replay{pop: Generate(env.Seed, env.Size), reg: telemetry.NewRegistry()}
	r.model = r.pop.Values()
	dir, err := scratchDir(env.Dir, "replay")
	if err != nil {
		return nil, err
	}
	r.dir, r.path = dir, filepath.Join(dir, "replay.log")
	if r.st, err = bulkLoad(r.path, r.pop, r.reg); err != nil {
		return nil, err
	}
	r.db = core.New(core.StrategyIndexed)
	for _, root := range r.pop.Roots {
		d, err := dynamic.MakeAt(root.Value, kindType[root.Kind])
		if err != nil {
			return nil, err
		}
		r.dyns = append(r.dyns, d)
		r.db.Insert(d)
	}
	r.idx = index.Rebuild(r.dyns, indexDefs()...)
	return r, nil
}

// write replays one one-key commit through core, index and the store, as
// the server's commit path composes them (publish = core + index; the
// store commit = stage + fsync).
func (r *replay) write(p Put) error {
	root := r.pop.Roots[p.Key]
	declared := kindType[root.Kind]
	d, err := dynamic.MakeAt(p.Value, declared)
	if err != nil {
		return err
	}
	old := r.dyns[p.Key]
	tr := r.spans.op("PUT")
	defer r.spans.done(tr)
	timed(tr, "core.fork_update", func() {
		next := r.db.Fork()
		next.Remove(old)
		next.Insert(d)
		r.db = next
	})
	var as index.ApplyStats
	timed(tr, "index.apply", func() {
		r.idx, as = r.idx.Apply([]index.Op{{Remove: old, Add: d}})
	})
	var cs intrinsic.CommitStats
	timed(tr, "intrinsic.stage", func() {
		if err = r.st.Bind(root.Name, p.Value, declared); err == nil {
			cs, err = r.st.StageCommit()
		}
	})
	if err != nil {
		return err
	}
	timed(tr, "intrinsic.fsync", func() { _, err = r.st.SyncBatch() })
	if err != nil {
		return err
	}
	r.dyns[p.Key], r.model[p.Key] = d, p.Value
	r.commits++
	r.reachable += int64(cs.NodesReachable)
	r.written += int64(cs.NodesWritten)
	r.logBytes += int64(cs.BytesWritten)
	r.touched += int64(as.EntriesTouched)
	return nil
}

// reopen times intrinsic.Open on its log,
// index.Rebuild over the reopened roots, and server.New; it serves the
// result with tracing on.
func (r *replay) reopen(o *Outcome) (*Node, error) {
	fi, err := os.Stat(r.path)
	if err != nil {
		return nil, err
	}
	o.Add("intrinsic.replay_bytes", "bytes", float64(fi.Size()), 0, "exact: log size scanned at open")
	t0 := time.Now()
	st, err := openStore(r.path, r.reg)
	if err != nil {
		return nil, err
	}
	o.Add("intrinsic.open_ms", "ms", ms(time.Since(t0)), 1, "intrinsic.Open")
	r.st = st
	var members []*dynamic.Dynamic
	for _, name := range st.Names() {
		root, _ := st.Root(name)
		d, err := dynamic.MakeAt(root.Value, root.Declared)
		if err != nil {
			return nil, err
		}
		members = append(members, d)
	}
	t1 := time.Now()
	index.Rebuild(members, indexDefs()...)
	o.Add("index.rebuild_ms", "ms", ms(time.Since(t1)), 1, "index.Rebuild over the reopened roots")
	checkRoots(o, "replay reopen", r.pop, r.model, len(r.pop.Roots), storeLookup(st, r.pop))
	node, newDur, err := serve(st, r.reg, tracedCfg)
	if err != nil {
		return nil, err
	}
	o.Add("server.new_ms", "ms", ms(newDur), 1, "server.New on the opened store")
	return node, nil
}

// catchUp replicates the served replay log twice: to an empty follower
// server (the dbpl_repl_* counters), and by calling ReadGroupsAt and
// ApplyGroup directly into an empty store.
func (r *replay) catchUp(node *Node, o *Outcome) error {
	fpath := filepath.Join(r.dir, "follower.log")
	freg := telemetry.NewRegistry()
	fst, err := openStore(fpath, freg)
	if err != nil {
		return err
	}
	fnode, _, err := serve(fst, freg, server.Config{Follow: node.Addr, TraceSampleRate: 1})
	if err != nil {
		fst.Close()
		return err
	}
	end := node.Store.DurableEnd()
	werr := waitCaughtUp(fst, end, 2*time.Minute)
	o.Attempted++
	if werr != nil {
		o.fail("replay catch-up: %v", werr)
	}
	if err := fnode.Stop(); err != nil {
		return err
	}
	o.Attempted++
	if same, err := sameFile(r.path, fpath); err != nil || !same {
		o.fail("replay follower log differs from the primary's (err %v)", err)
	}
	o.Add("server.repl_groups_applied", "count", float64(counter(freg.Snapshot(), "dbpl_repl_groups_applied_total")), 0, "exact: dbpl_repl_groups_applied_total")
	o.Add("server.repl_bytes_shipped", "bytes", float64(counter(node.Reg.Snapshot(), "dbpl_repl_bytes_shipped_total")), 0, "exact: dbpl_repl_bytes_shipped_total")

	dst, err := intrinsic.Open(filepath.Join(r.dir, "direct.log"))
	if err != nil {
		return err
	}
	defer dst.Close()
	var readMS, applyMS []float64
	groups := 0
	for from := intrinsic.HeaderSize; from < end; {
		t0 := time.Now()
		raw, next, n, err := node.Store.ReadGroupsAt(from, 0)
		readMS = append(readMS, ms(time.Since(t0)))
		if err != nil {
			return err
		}
		t1 := time.Now()
		if _, err := dst.ApplyGroup(raw); err != nil {
			return err
		}
		applyMS = append(applyMS, ms(time.Since(t1)))
		groups += n
		from = next
	}
	o.Attempted++
	if dst.DurableEnd() != end {
		o.fail("direct catch-up ended at %d, want %d", dst.DurableEnd(), end)
	}
	o.Add("intrinsic.read_groups_ms", "ms", Mean(readMS), len(readMS), "mean Store.ReadGroupsAt per 256 KiB chunk")
	o.Add("intrinsic.apply_group_ms", "ms", Mean(applyMS)*float64(len(applyMS))/float64(groups), groups, "Store.ApplyGroup time per commit group, empty replica store")
	return nil
}

// planInput sizes a GET for the planner exactly as the server does: the
// set's member and extent counts, and the declared index on one of the
// record's fields with the fewest candidates.
func planInput(idx *index.Set, want *types.Interned) plan.GetInput {
	in := plan.GetInput{N: idx.Len(), Types: idx.Types()}
	if rt, ok := want.Type().(*types.Record); ok {
		for _, f := range rt.Fields() {
			if c, ok := idx.CandidateCount(f.Label); ok && (in.Field == "" || c < in.Candidates) {
				in.Field, in.Candidates = f.Label, c
			}
		}
	}
	return in
}

// reads replays the read mix through plan, index, codec, wire, core and
// relation, checking each answer against the model.
func (r *replay) reads(ops []ReadOp, o *Outcome) error {
	exp := expectReads(r.pop, r.model)
	model := plan.NewModel(telemetry.NewRegistry())
	for _, op := range ops {
		o.Attempted++
		if op == JoinEmpDept {
			tr := r.spans.op("JOIN")
			var v1, v2 []value.Value
			timed(tr, "core.get_values", func() {
				v1 = r.db.GetValues(employeeT)
				v2 = r.db.GetValues(departmentT)
			})
			var joined *relation.Relation
			timed(tr, "relation.join", func() {
				r1, r2 := relation.New(v1...), relation.New(v2...)
				joined = relation.JoinPlanned(r1, r2, relation.PlanJoin(r1, r2))
			})
			r.spans.done(tr)
			if err := exp.checkJoin(joined.Members()); err != nil {
				o.fail("replay: %v", err)
			}
			continue
		}
		t := employeeT
		if op == GetStudent {
			t = studentT
		}
		want := types.Intern(t)
		tr := r.spans.op("GET")
		var p plan.GetPlan
		timed(tr, "plan.plan", func() { p = model.PlanGet(planInput(r.idx, want)) })
		var packed []core.Packed
		items := 0
		began := time.Now()
		timed(tr, "index.exec", func() {
			switch p.Path {
			case plan.PathExtent:
				entries, _ := r.idx.GetEntries(want)
				items = len(entries)
				for _, e := range entries {
					packed = append(packed, core.Packed{Value: e.Dyn.Value(), Witness: e.Dyn.Type()})
				}
			case plan.PathIndex:
				cands, _ := r.idx.Candidates(p.Field)
				items = len(cands)
				for _, e := range cands {
					if types.SubtypeInterned(e.Dyn.Interned(), want) {
						packed = append(packed, core.Packed{Value: e.Dyn.Value(), Witness: e.Dyn.Type()})
					}
				}
			default:
				packed = r.db.Get(t)
				items = p.N
			}
		})
		model.Observe(p.Path, time.Since(began), items, len(packed), p.N)
		imgs := make([][]byte, len(packed))
		var err error
		timed(tr, "codec.marshal", func() {
			for i, m := range packed {
				if imgs[i], err = codec.MarshalTagged(m.Value, m.Witness); err != nil {
					return
				}
			}
		})
		if err != nil {
			return err
		}
		var fields [][]byte
		timed(tr, "wire.frame", func() {
			var frame []byte
			if frame, err = wire.AppendFrame(nil, 0, wire.OpValues, imgs...); err == nil {
				_, fields, err = wire.ReadFrame(bytes.NewReader(frame), 0)
			}
		})
		if err != nil {
			return err
		}
		got := make([]client.Packed, len(fields))
		timed(tr, "codec.unmarshal", func() {
			for i, f := range fields {
				var v value.Value
				var w types.Type
				if v, w, err = codec.UnmarshalTagged(f); err != nil {
					return
				}
				got[i] = client.Packed{Value: v, Witness: w}
			}
		})
		r.spans.done(tr)
		if err != nil {
			return err
		}
		if err := exp.checkGet(op, got); err != nil {
			o.fail("replay: %v", err)
		}
		r.gets++
		r.readResults += int64(len(packed))
		for _, img := range imgs {
			r.readBytes += int64(len(img))
		}
		r.readAllocs += int64(codecAllocs(packed))
	}
	return nil
}

// codecAllocs counts the heap allocations of marshalling and then
// unmarshalling one response's members. Mallocs is process-wide, so an
// idle runtime goroutine can add to one pass but never subtract: the
// fewest over three passes is the exact count.
func codecAllocs(packed []core.Packed) uint64 {
	var least uint64
	for pass := 0; pass < 3; pass++ {
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		for _, p := range packed {
			img, _ := codec.MarshalTagged(p.Value, p.Witness)
			codec.UnmarshalTagged(img)
		}
		runtime.ReadMemStats(&m1)
		if n := m1.Mallocs - m0.Mallocs; pass == 0 || n < least {
			least = n
		}
	}
	return least
}

// serverSide is what the served side of one traffic source showed: the
// registry delta, the server's span trees, and the client round trips.
type serverSide struct {
	delta   *telemetry.Snapshot
	traces  []rtrace.Data
	getRT   []float64 // client GET round trips, ms
	results int64     // GET members returned
}

// probe sends puts PUTs and gets GETs from one client to the traced
// replay server.
func (r *replay) probe(node *Node, ws *WriteStream, puts, gets int, o *Outcome) (serverSide, uint64, error) {
	var side serverSide
	c, err := dial(node.Addr)
	if err != nil {
		return side, 0, err
	}
	defer c.Close()
	before := node.Reg.Snapshot()
	for i := 0; i < puts; i++ {
		p := ws.Next(r.model)
		root := r.pop.Roots[p.Key]
		o.Attempted++
		if err := c.Put(root.Name, p.Value, kindType[root.Kind]); err != nil {
			o.fail("probe PUT: %v", err)
		}
	}
	exp := expectReads(r.pop, r.model)
	rs := NewReadStream(r.pop.Seed, 4, 0)
	for i := 0; i < gets; i++ {
		op := rs.Next()
		if op == JoinEmpDept {
			op = GetEmployee
		}
		t := employeeT
		if op == GetStudent {
			t = studentT
		}
		o.Attempted++
		t0 := time.Now()
		got, err := c.Get(t)
		d := time.Since(t0)
		if err == nil {
			err = exp.checkGet(op, got)
		}
		if err != nil {
			o.fail("probe GET: %v", err)
			continue
		}
		side.getRT = append(side.getRT, ms(d))
		side.results += int64(len(got))
	}
	side.delta = node.Reg.Snapshot().Delta(before)
	side.traces = node.Srv.Traces()
	return side, retries(c), nil
}

// commitLayers reports the server's commit-path layers from side.
func commitLayers(o *Outcome, side serverSide, src string) {
	m, n := histMeanMS(side.delta, "dbpl_server_commit_seconds")
	o.Add("server.commit_ms", "ms", m, int(n), "mean dbpl_server_commit_seconds; "+src)
	o.Add("server.lock_wait_ms", "ms", Mean(durs(side.traces, "lock-wait")), len(durs(side.traces, "lock-wait")), "mean span lock-wait; "+src)
	o.Add("server.publish_ms", "ms", Mean(durs(side.traces, "publish")), len(durs(side.traces, "publish")), "mean span publish; "+src)
}

// getLayers reports the server's read-path layers from side.
func getLayers(o *Outcome, side serverSide, src string) {
	m, n := histMeanMS(side.delta, `dbpl_server_request_seconds{op="GET"}`)
	o.Add("server.get_ms", "ms", m, int(n), `mean dbpl_server_request_seconds{op="GET"}; `+src)
	var chosen [3]float64
	total := 0.0
	for i, p := range []string{"extent", "index", "scan"} {
		chosen[i] = float64(counter(side.delta, `dbpl_plan_chosen_total{path="`+p+`"}`))
		total += chosen[i]
	}
	for i, p := range []string{"extent", "index", "scan"} {
		share := 0.0
		if total > 0 {
			share = chosen[i] / total
		}
		o.Add("plan.path_share."+p, "ratio", share, int(total), `dbpl_plan_chosen_total{path="`+p+`"} / all; `+src)
	}
	items := float64(planItems(side.delta))
	o.Add("plan.items_per_result", "ratio", items/float64(side.results), int(total), "dbpl_plan_path_items / members returned; "+src)
	o.Add("client.get_outside_server_ms", "ms", Mean(side.getRT)-m, len(side.getRT), "mean client GET round trip - server.get_ms; "+src)
}

// coverage prints how much of a traced end-to-end p50 the server's spans
// named in names cover, then the replay means of the layers in extra
// (which have no server span), and the uncovered remainder.
func coverage(label string, p50 float64, traces []rtrace.Data, op string, names, extra []string, replay []rtrace.Data) {
	sums, each := spanSums(traces, op, names)
	covered, _ := Percentile(sums, 0.5)
	fmt.Printf("span coverage %s: traced p50 %.3f ms (n=%d traces)\n", label, p50, len(sums))
	for _, n := range names {
		v, _ := Percentile(each[n], 0.5)
		fmt.Printf("  span %-24s p50 %9.3f ms  n=%d\n", n, v, len(each[n]))
	}
	fmt.Printf("  covered by server spans       %9.3f ms  (%.1f%% of p50)\n", covered, 100*covered/p50)
	rest := p50 - covered
	for _, n := range extra {
		m := Mean(durs(replay, n))
		fmt.Printf("  replay-attributed %-12s %9.3f ms  (mean per response, from the layer replay)\n", n, m)
		rest -= m
	}
	fmt.Printf("  uncovered remainder           %9.3f ms  (%.1f%% of p50)\n", rest, 100*rest/p50)
}

func overhead(traced, untraced float64) float64 { return 100 * (traced - untraced) / untraced }

// writesFor returns the write replay of workload name: write-2k's
// two writer streams interleaved, recover-2k's history, or a short
// independent stream for read-2k.
func (r *replay) writesFor(name string, env Env) (next func() Put, n int) {
	switch name {
	case "write-2k":
		streams, i := writeStreams(r.pop, env), 0
		return func() Put { i++; return streams[(i-1)%len(streams)].Next(r.model) }, replayWrites[name]
	case "recover-2k":
		ws := NewWriteStream(r.pop, 1, 0, 1)
		return func() Put { return ws.Next(r.model) }, env.Size.History
	default:
		ws := NewWriteStream(r.pop, 2, 0, 1)
		return func() Put { return ws.Next(r.model) }, replayWrites[name]
	}
}

// liveQuarters runs write-2k's or read-2k's loop in quarters, untraced and
// traced in the order U T T U so drift over the run biases neither side;
// each side shares one registry. It returns what the traced quarters
// showed and the p50 of each side (untraced, traced) of the operation
// behind the p50_ms slot: PUT, or GET[Employee].
func liveQuarters(name string, env Env, o *Outcome) (side *serverSide, p50 [2]float64, clientRetries uint64, err error) {
	quarter := env
	quarter.Measure = env.Measure / 4
	var lat [2][]float64
	side = &serverSide{}
	regs := [2]*telemetry.Registry{telemetry.NewRegistry(), telemetry.NewRegistry()}
	for i, t := range []int{0, 1, 1, 0} {
		cfg := server.Config{}
		if t == 1 {
			cfg = tracedCfg
		}
		s, err := setupServed(quarter, fmt.Sprintf("live%d", i), cfg, regs[t])
		if err != nil {
			return nil, p50, 0, err
		}
		if name == "write-2k" {
			res := writeLoop(quarter, s, writeStreams(s.Pop, quarter), o)
			lat[t] = append(lat[t], res.lat...)
		} else {
			res := readLoop(quarter, s, i, o)
			lat[t] = append(lat[t], res.getByType[GetEmployee]...)
			if t == 1 {
				side.getRT = append(side.getRT, res.get...)
				side.results += res.results
			}
		}
		if t == 1 {
			side.traces = append(side.traces, s.Node.Srv.Traces()...)
		}
		for _, c := range s.Clients {
			clientRetries += retries(c)
		}
		if name == "write-2k" {
			checkDurable(s, o)
		} else if err := s.Close(); err != nil {
			return nil, p50, 0, err
		}
	}
	side.delta = regs[1].Snapshot()
	var note [2]string
	for t := range p50 {
		p50[t], _ = Percentile(lat[t], 0.5)
		note[t] = fmt.Sprintf("%.3f ms (n=%d", p50[t], len(lat[t]))
		if name == "read-2k" {
			// A feedback-planner switch to the scan path moves a side's p50
			// more than tracing does; show it.
			note[t] += fmt.Sprintf(", %d scan-path GETs", counter(regs[t].Snapshot(), `dbpl_plan_chosen_total{path="scan"}`))
		}
	}
	o.Add("trace.overhead_pct", "pct", overhead(p50[1], p50[0]), len(lat[0])+len(lat[1]),
		fmt.Sprintf("traced p50 %s) vs untraced %s)", note[1], note[0]))
	return side, p50, clientRetries, nil
}

// liveRecover runs recover cycles on a copy of the replayed history: one
// discarded warm-up (a process's first cycle is the slowest), then
// untraced and traced in the order U T T U so drift biases neither side.
func (r *replay) liveRecover(o *Outcome) error {
	hist := &History{Pop: r.pop, Model: r.model, Dir: r.dir, Path: filepath.Join(r.dir, "history.log")}
	if err := copyFile(r.path, hist.Path); err != nil {
		return err
	}
	var reopen [2][]float64
	for i, t := range []int{-1, 0, 1, 1, 0} {
		cfg := server.Config{}
		if t == 1 {
			cfg = tracedCfg
		}
		c, err := recoverCycle(hist, i, cfg, o)
		if err != nil {
			return err
		}
		if t >= 0 {
			reopen[t] = append(reopen[t], ms(c.reopen))
		}
	}
	u, tr := Mean(reopen[0]), Mean(reopen[1])
	o.Add("trace.overhead_pct", "pct", overhead(tr, u), 4, fmt.Sprintf("mean traced restart %.1f ms vs untraced %.1f ms, 2 cycles each", tr, u))
	return nil
}

// served reopens the replay log, probes it for the server layers the live
// loop did not reach, replicates it, and compacts it. It stops the server.
func (r *replay) served(commitSide, getSide *serverSide, o *Outcome) (clientRetries uint64, err error) {
	node, err := r.reopen(o)
	if err != nil {
		return 0, err
	}
	defer func() {
		if serr := node.Stop(); err == nil {
			err = serr
		}
	}()
	puts, gets := probePuts, probeGets
	if commitSide != nil {
		puts = 0
	}
	if getSide != nil {
		gets = 0
	}
	side, clientRetries, err := r.probe(node, NewWriteStream(r.pop, 3, 0, 1), puts, gets, o)
	if err != nil {
		return 0, err
	}
	if commitSide == nil {
		commitLayers(o, side, "probe: one client, 20 PUTs")
	} else {
		commitLayers(o, *commitSide, "traced write-2k loop")
	}
	if getSide == nil {
		getLayers(o, side, "probe: one client, 100 GETs")
	} else {
		getLayers(o, *getSide, "traced read-2k loop")
	}
	if err := r.catchUp(node, o); err != nil {
		return 0, err
	}
	cs, err := node.Store.Compact()
	if err != nil {
		return 0, err
	}
	o.Add("intrinsic.log_amp", "ratio", float64(cs.BytesBefore)/float64(cs.BytesAfter), 0,
		fmt.Sprintf("exact: Compact of the replay log, %d bytes before / %d after", cs.BytesBefore, cs.BytesAfter))
	return clientRetries, nil
}

// runTraced is the per-layer run of workload name.
func runTraced(name string, env Env) (*Outcome, error) {
	o := &Outcome{}
	r, err := newReplay(env)
	if err != nil {
		return o, err
	}
	// 1. The write replay through core, index and the store.
	next, writes := r.writesFor(name, env)
	for i := 0; i < writes; i++ {
		if err := r.write(next()); err != nil {
			return o, err
		}
	}
	if err := r.st.Close(); err != nil {
		return o, err
	}
	tr := &r.spans.traces
	n := float64(r.commits)
	o.Add("intrinsic.stage_ms", "ms", Mean(durs(*tr, "intrinsic.stage")), r.commits, "Store.Bind + Store.StageCommit per one-key group")
	o.Add("intrinsic.fsync_ms", "ms", Mean(durs(*tr, "intrinsic.fsync")), r.commits, "Store.SyncBatch per group")
	if m, c := histMeanMS(r.reg.Snapshot(), "dbpl_persist_fsync_seconds"); c > 0 {
		fmt.Printf("%-40s %14.6f %-6s n=%d  (dbpl_persist_fsync_seconds mean, every fsync of the replay store)\n", "  telemetry fsync", m, "ms", c)
	}
	o.Add("intrinsic.nodes_encoded_per_commit", "count", float64(r.reachable)/n, r.commits, "exact: CommitStats.NodesReachable")
	o.Add("intrinsic.nodes_written_per_commit", "count", float64(r.written)/n, r.commits, "exact: CommitStats.NodesWritten")
	o.Add("intrinsic.bytes_per_commit", "bytes", float64(r.logBytes)/n, r.commits, "exact: CommitStats.BytesWritten")
	o.Add("core.fork_update_ms", "ms", Mean(durs(*tr, "core.fork_update")), r.commits, "Database Fork + Remove + Insert per op")
	o.Add("index.apply_ms", "ms", Mean(durs(*tr, "index.apply")), r.commits, "index.Set.Apply per op")
	o.Add("index.entries_touched_per_commit", "count", float64(r.touched)/n, r.commits, "exact: ApplyStats.EntriesTouched")

	// 2. The workload's live loop, untraced and traced.
	var commitSide, getSide *serverSide
	var p50 [2]float64
	var clientRetries uint64
	switch name {
	case "write-2k":
		commitSide, p50, clientRetries, err = liveQuarters(name, env, o)
	case "read-2k":
		getSide, p50, clientRetries, err = liveQuarters(name, env, o)
	default:
		err = r.liveRecover(o)
	}
	if err != nil {
		return o, err
	}

	// 3. The replay log, served.
	pr, err := r.served(commitSide, getSide, o)
	if err != nil {
		return o, err
	}
	clientRetries += pr

	// 4. The read replay through the read-path layers.
	var reads []ReadOp
	streams := []*ReadStream{NewReadStream(r.pop.Seed, 0, 0), NewReadStream(r.pop.Seed, 0, 1)}
	for i := 0; i < replayReads; i++ {
		reads = append(reads, streams[i%2].Next())
	}
	for i := 0; i < replayJoins; i++ {
		reads = append(reads, JoinEmpDept)
	}
	if err := r.reads(reads, o); err != nil {
		return o, err
	}
	o.Add("plan.plan_us", "us", 1000*Mean(durs(*tr, "plan.plan")), int(r.gets), "plan.Model.PlanGet")
	o.Add("index.exec_ms", "ms", Mean(durs(*tr, "index.exec")), int(r.gets), "Set.GetEntries / Set.Candidates per GET")
	o.Add("codec.marshal_ms", "ms", Mean(durs(*tr, "codec.marshal")), int(r.gets), "codec.MarshalTagged over one response")
	o.Add("codec.unmarshal_ms", "ms", Mean(durs(*tr, "codec.unmarshal")), int(r.gets), "codec.UnmarshalTagged over one response")
	o.Add("wire.frame_ms", "ms", Mean(durs(*tr, "wire.frame")), int(r.gets), "wire.AppendFrame + wire.ReadFrame of one response")
	o.Add("codec.bytes_per_result", "bytes", float64(r.readBytes)/float64(r.readResults), int(r.readResults), "exact: response image bytes per value")
	o.Add("codec.allocs_per_result", "count", float64(r.readAllocs)/float64(r.readResults), int(r.readResults), "exact: Mallocs around marshal + unmarshal")
	o.Add("core.get_values_ms", "ms", Mean(durs(*tr, "core.get_values")), len(durs(*tr, "core.get_values")), "Database.GetValues for the JOIN inputs")
	o.Add("relation.join_ms", "ms", Mean(durs(*tr, "relation.join")), len(durs(*tr, "relation.join")), "relation.PlanJoin + JoinPlanned")
	o.Add("client.retries", "count", float64(clientRetries), 0, "exact: dbpl_client_retries_total over every client")
	if commitSide != nil {
		coverage("write-2k PUT", p50[1], commitSide.traces, "PUT", []string{"lock-wait", "stage", "append-fsync", "publish"}, nil, nil)
	}
	if getSide != nil {
		all, _ := Percentile(getSide.getRT, 0.5)
		coverage("read-2k GET", all, getSide.traces, "GET", []string{"plan", "exec:"}, []string{"codec.marshal", "wire.frame", "codec.unmarshal"}, *tr)
	}
	return o, nil
}
