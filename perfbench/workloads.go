package main

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"time"

	"dbpl/client"
	"dbpl/internal/persist/codec"
	"dbpl/internal/persist/intrinsic"
	"dbpl/internal/server"
	"dbpl/internal/telemetry"
	"dbpl/internal/types"
	"dbpl/internal/value"
)

// Env is one benchmark run's fixed inputs.
type Env struct {
	Dir     string        // scratch directory for logs (inside the checkout)
	Seed    int64         // the workload seed
	Size    Size          // population and history size
	Measure time.Duration // length of the measured loop
	Setups  int           // set-up repeats; setup_s is their median
	Clients int           // closed-loop clients, one connection each
}

// Outcome is what a workload run measured and checked. Attempted counts
// every operation and output check; Failed those that errored, were
// refused, or returned a wrong output.
type Outcome struct {
	Report
	Attempted int
	Failed    int
	Errors    []string
}

func (o *Outcome) fail(format string, args ...any) {
	o.Failed++
	if len(o.Errors) < 8 {
		o.Errors = append(o.Errors, fmt.Sprintf(format, args...))
	}
}

// Served is a set-up store under a running server, with the workload's
// clients dialed.
type Served struct {
	Pop     *Population
	Model   []*value.Record // current value per root, updated on acks
	Dir     string
	Path    string
	Node    *Node
	Clients []*client.Client
}

// Close stops the clients and the server and closes the store.
func (s *Served) Close() error {
	for _, c := range s.Clients {
		c.Close()
	}
	return s.Node.Stop()
}

// setupServed generates the population, bulk-loads it, builds the server
// and dials the clients: everything up to the first timed operation.
// reg receives the store's and the server's telemetry (nil: a fresh one).
func setupServed(env Env, name string, cfg server.Config, reg *telemetry.Registry) (*Served, error) {
	pop := Generate(env.Seed, env.Size)
	dir, err := scratchDir(env.Dir, name)
	if err != nil {
		return nil, err
	}
	path := filepath.Join(dir, "primary.log")
	if reg == nil {
		reg = telemetry.NewRegistry()
	}
	st, err := bulkLoad(path, pop, reg)
	if err != nil {
		return nil, err
	}
	node, _, err := serve(st, reg, cfg)
	if err != nil {
		st.Close()
		return nil, err
	}
	s := &Served{Pop: pop, Model: pop.Values(), Dir: dir, Path: path, Node: node}
	for i := 0; i < env.Clients; i++ {
		c, err := dial(node.Addr)
		if err != nil {
			s.Close()
			return nil, err
		}
		s.Clients = append(s.Clients, c)
	}
	return s, nil
}

// repeatSetup runs setup env.Setups times, tearing down all but the last,
// and records setup_s (median) and heap_mb (live heap after a forced GC
// at the end of the last set-up).
func repeatSetup[T any](env Env, o *Outcome, setup func() (T, error), teardown func(T) error) (T, error) {
	var last T
	var secs []float64
	for i := 0; i < env.Setups; i++ {
		t0 := time.Now()
		v, err := setup()
		if err != nil {
			return last, err
		}
		secs = append(secs, time.Since(t0).Seconds())
		if i < env.Setups-1 {
			if err := teardown(v); err != nil {
				return last, err
			}
			continue
		}
		last = v
	}
	o.Add("setup_s", "s", Median(secs), len(secs), "median of the run's set-ups")
	o.Add("heap_mb", "MB", liveHeapMB(), 0, "live heap after GC at the end of set-up")
	return last, nil
}

func liveHeapMB() float64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / 1e6
}

// closedLoop runs one goroutine per client until the measured window
// closes; each waits for its reply before sending the next request. It
// returns the wall time from the start to the last reply.
func closedLoop(env Env, body func(w int, deadline time.Time)) time.Duration {
	start := time.Now()
	deadline := start.Add(env.Measure)
	var wg sync.WaitGroup
	for w := 0; w < env.Clients; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			body(w, deadline)
		}(w)
	}
	wg.Wait()
	return time.Since(start)
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }

// ---------------------------------------------------------------------------
// write-2k

// writeResult is the write loop's raw outcome, shared by the untraced and
// traced runs.
type writeResult struct {
	lat       []float64 // ack latency per acked PUT, ms
	imgBytes  int64     // tagged value image bytes of the acked PUTs
	logBytes  int64     // log bytes appended during the loop
	attempted int
	elapsed   time.Duration
}

// writeLoop drives one-key autocommit PUTs from every client. Writer w
// continues its stream across calls (streams is indexed by writer).
func writeLoop(env Env, s *Served, streams []*WriteStream, o *Outcome) writeResult {
	var mu sync.Mutex
	var res writeResult
	before := s.Node.Store.DurableEnd()
	res.elapsed = closedLoop(env, func(w int, deadline time.Time) {
		c := s.Clients[w]
		var lat []float64
		var img int64
		n := 0
		for time.Now().Before(deadline) {
			p := streams[w].Next(s.Model)
			root := s.Pop.Roots[p.Key]
			declared := kindType[root.Kind]
			image, err := codec.MarshalTagged(p.Value, declared)
			if err != nil {
				mu.Lock()
				o.fail("marshal %s: %v", root.Name, err)
				mu.Unlock()
				continue
			}
			n++
			t0 := time.Now()
			err = c.Put(root.Name, p.Value, declared)
			d := time.Since(t0)
			if err != nil {
				mu.Lock()
				o.fail("PUT %s: %v", root.Name, err)
				mu.Unlock()
				continue
			}
			s.Model[p.Key] = p.Value // key owned by this writer
			lat = append(lat, ms(d))
			img += int64(len(image))
		}
		mu.Lock()
		res.lat = append(res.lat, lat...)
		res.imgBytes += img
		res.attempted += n
		mu.Unlock()
	})
	res.logBytes = s.Node.Store.DurableEnd() - before
	o.Attempted += res.attempted
	return res
}

// checkRoots compares every root's value with the model.
// lookup(i) returns what the system holds for root i; the first n roots
// are checked.
func checkRoots(o *Outcome, where string, pop *Population, model []*value.Record, n int, lookup func(i int) (value.Value, bool)) {
	for i, r := range pop.Roots[:n] {
		o.Attempted++
		got, ok := lookup(i)
		if !ok || !value.Equal(got, model[i]) {
			o.fail("%s: root %s reads back %v, want %v", where, r.Name, got, model[i])
		}
	}
}

// storeLookup reads root i of pop from st.
func storeLookup(st *intrinsic.Store, pop *Population) func(int) (value.Value, bool) {
	return func(i int) (value.Value, bool) {
		r, ok := st.Root(pop.Roots[i].Name)
		if !ok {
			return nil, false
		}
		return r.Value, true
	}
}

// nameOf returns a record's Name field.
func nameOf(r *value.Record) string {
	n, _ := r.Get("Name")
	s, _ := n.(value.String)
	return string(s)
}

// checkDurable verifies that every acked value reads back by GET, and
// again from the reopened store after the server has shut down: acked
// means durable. It stops s.
func checkDurable(s *Served, o *Outcome) {
	got, err := s.Clients[0].Get(personT)
	o.Attempted++
	if err != nil {
		o.fail("read-back GET: %v", err)
	}
	byName := map[string]value.Value{}
	for _, p := range got {
		if r, ok := p.Value.(*value.Record); ok {
			byName[nameOf(r)] = r
		}
	}
	checkRoots(o, "GET after load", s.Pop, s.Model, s.Pop.RKeys(), func(i int) (value.Value, bool) {
		v, ok := byName[nameOf(s.Model[i])]
		return v, ok
	})
	if err := s.Close(); err != nil {
		o.fail("shutdown: %v", err)
		return
	}
	st, err := intrinsic.Open(s.Path)
	if err != nil {
		o.fail("reopen: %v", err)
		return
	}
	defer st.Close()
	checkRoots(o, "reopened store", s.Pop, s.Model, len(s.Pop.Roots), storeLookup(st, s.Pop))
}

func writeStreams(pop *Population, env Env) []*WriteStream {
	out := make([]*WriteStream, env.Clients)
	for w := range out {
		out[w] = NewWriteStream(pop, 0, w, env.Clients)
	}
	return out
}

// runWrite is the untraced write-2k run.
func runWrite(env Env) (*Outcome, error) {
	o := &Outcome{}
	s, err := repeatSetup(env, o, func() (*Served, error) { return setupServed(env, "write", server.Config{}, nil) }, (*Served).Close)
	if err != nil {
		return o, err
	}
	res := writeLoop(env, s, writeStreams(s.Pop, env), o)
	reportWrite(o, res)
	checkDurable(s, o)
	return o, nil
}

func reportWrite(o *Outcome, res writeResult) {
	o.Add("put_ops_per_s", "ops/s", float64(len(res.lat))/res.elapsed.Seconds(), len(res.lat), "acked PUTs per second")
	o.AddPercentile("put_p50_ms", "ms", res.lat, 0.50)
	o.AddPercentile("put_p95_ms", "ms", res.lat, 0.95)
	amp := 0.0
	if res.imgBytes > 0 {
		amp = float64(res.logBytes) / float64(res.imgBytes)
	}
	o.Add("put_write_amp", "ratio", amp, len(res.lat), fmt.Sprintf("%d log bytes / %d image bytes", res.logBytes, res.imgBytes))
}

// ---------------------------------------------------------------------------
// read-2k

// readExpect is the model's answer to each read.
type readExpect struct {
	employees, students int
	floorOf             map[string]int64 // employee Name -> its department's Floor
}

func expectReads(pop *Population, model []*value.Record) readExpect {
	e := readExpect{employees: pop.Count(Employee), students: pop.Count(Student), floorOf: map[string]int64{}}
	for i, r := range pop.Roots {
		if r.Kind == Employee {
			v := model[i]
			e.floorOf[nameOf(v)] = pop.Floors[string(v.MustGet("Dept").(value.String))]
		}
	}
	return e
}

// checkGet verifies a GET answer's count and member types.
func (e readExpect) checkGet(op ReadOp, got []client.Packed) error {
	want, in := e.employees, kindIn[Employee]
	if op == GetStudent {
		want, in = e.students, kindIn[Student]
	}
	if len(got) != want {
		return fmt.Errorf("%v returned %d members, want %d", op, len(got), want)
	}
	for _, p := range got {
		if types.Intern(p.Witness) != in {
			return fmt.Errorf("%v returned a member of type %v", op, p.Witness)
		}
	}
	return nil
}

// checkJoin verifies one merged record per employee carrying its
// department's Floor.
func (e readExpect) checkJoin(got []value.Value) error {
	if len(got) != e.employees {
		return fmt.Errorf("JOIN returned %d records, want %d", len(got), e.employees)
	}
	seen := make(map[string]bool, len(got))
	for _, v := range got {
		r, ok := v.(*value.Record)
		if !ok {
			return fmt.Errorf("JOIN returned a non-record %v", v)
		}
		n := nameOf(r)
		floor, _ := r.Get("Floor")
		want, ok := e.floorOf[n]
		if !ok || seen[n] || floor != value.Value(value.Int(want)) {
			return fmt.Errorf("JOIN record %v does not match the model", r)
		}
		seen[n] = true
	}
	return nil
}

// readResult is the read loop's raw outcome.
type readResult struct {
	get, join []float64    // latency per completed op, ms
	getByType [2][]float64 // GET latencies by op (GetEmployee, GetStudent)
	results   int64        // GET members returned
	elapsed   time.Duration
}

// readLoop drives the read mix from every client.
func readLoop(env Env, s *Served, stream int, o *Outcome) readResult {
	exp := expectReads(s.Pop, s.Model)
	var mu sync.Mutex
	var res readResult
	res.elapsed = closedLoop(env, func(w int, deadline time.Time) {
		c := s.Clients[w]
		rs := NewReadStream(s.Pop.Seed, stream, w)
		var get, join []float64
		var byType [2][]float64
		var results int64
		var errs []string
		n := 0
		for time.Now().Before(deadline) {
			op := rs.Next()
			n++
			t0 := time.Now()
			var err error
			if op == JoinEmpDept {
				var vals []value.Value
				vals, err = c.Join(employeeT, departmentT)
				d := time.Since(t0)
				if err == nil {
					join = append(join, ms(d))
					err = exp.checkJoin(vals)
				}
			} else {
				t := employeeT
				if op == GetStudent {
					t = studentT
				}
				var got []client.Packed
				got, err = c.Get(t)
				d := time.Since(t0)
				if err == nil {
					get = append(get, ms(d))
					byType[op] = append(byType[op], ms(d))
					results += int64(len(got))
					err = exp.checkGet(op, got)
				}
			}
			if err != nil {
				errs = append(errs, err.Error())
			}
		}
		mu.Lock()
		res.get = append(res.get, get...)
		res.join = append(res.join, join...)
		for i := range byType {
			res.getByType[i] = append(res.getByType[i], byType[i]...)
		}
		res.results += results
		o.Attempted += n
		for _, e := range errs {
			o.fail("%s", e)
		}
		mu.Unlock()
	})
	return res
}

// planItems sums the planner's items-examined histograms.
func planItems(snap *telemetry.Snapshot) int64 {
	var sum int64
	for _, p := range []string{"scan", "extent", "index"} {
		if h, ok := snap.Histogram(`dbpl_plan_path_items{path="` + p + `"}`); ok {
			sum += h.Sum
		}
	}
	return sum
}

// runRead is the untraced read-2k run.
func runRead(env Env) (*Outcome, error) {
	o := &Outcome{}
	s, err := repeatSetup(env, o, func() (*Served, error) { return setupServed(env, "read", server.Config{}, nil) }, (*Served).Close)
	if err != nil {
		return o, err
	}
	defer s.Close()
	before := s.Node.Reg.Snapshot()
	res := readLoop(env, s, 0, o)
	items := planItems(s.Node.Reg.Snapshot()) - planItems(before)
	reportRead(o, res, items)
	return o, nil
}

func reportRead(o *Outcome, res readResult, items int64) {
	n := len(res.get) + len(res.join)
	o.Add("read_ops_per_s", "ops/s", float64(n)/res.elapsed.Seconds(), n, "GETs and JOINs per second")
	o.AddPercentile("get_p50_ms", "ms", res.get, 0.50)
	o.AddPercentile("get_employee_p50_ms", "ms", res.getByType[GetEmployee], 0.50)
	o.AddPercentile("get_student_p50_ms", "ms", res.getByType[GetStudent], 0.50)
	o.AddPercentile("get_p99_ms", "ms", res.get, 0.99)
	o.AddPercentile("join_p50_ms", "ms", res.join, 0.50)
	amp := 0.0
	if res.results > 0 {
		amp = float64(items) / float64(res.results)
	}
	o.Add("read_amp", "ratio", amp, len(res.get), fmt.Sprintf("%d items examined / %d GET results", items, res.results))
}

// ---------------------------------------------------------------------------
// recover-2k

// History is recover-2k's set-up product: a log holding the bulk load and
// then Size.History seed-chosen one-key commits, and the model after them.
type History struct {
	Pop   *Population
	Model []*value.Record
	Dir   string
	Path  string
}

// buildHistory bulk-loads the population and appends the history through
// intrinsic.Store, one Bind + Commit per overwrite.
func buildHistory(env Env, name string) (*History, error) {
	pop := Generate(env.Seed, env.Size)
	dir, err := scratchDir(env.Dir, name)
	if err != nil {
		return nil, err
	}
	h := &History{Pop: pop, Model: pop.Values(), Dir: dir, Path: filepath.Join(dir, "history.log")}
	st, err := bulkLoad(h.Path, pop, telemetry.NewRegistry())
	if err != nil {
		return nil, err
	}
	defer st.Close()
	ws := NewWriteStream(pop, 1, 0, 1)
	for i := 0; i < env.Size.History; i++ {
		p := ws.Next(h.Model)
		r := pop.Roots[p.Key]
		if err := st.Bind(r.Name, p.Value, kindType[r.Kind]); err != nil {
			return nil, err
		}
		if _, err := st.Commit(); err != nil {
			return nil, err
		}
		h.Model[p.Key] = p.Value
	}
	return h, nil
}

// cycle is one recover-2k repeat's timings.
type cycle struct {
	reopen, catchup time.Duration
}

// recoverCycle restarts a primary on a fresh copy of the history log
// (Open + server.New + the first GET answered), checks its roots against
// the model, then starts an empty follower and times its catch-up to the
// primary's durable end, checking the logs are byte-identical.
func recoverCycle(h *History, i int, cfg server.Config, o *Outcome) (cycle, error) {
	var c cycle
	dir, err := scratchDir(h.Dir, fmt.Sprintf("cycle%d", i))
	if err != nil {
		return c, err
	}
	defer os.RemoveAll(dir)
	ppath := filepath.Join(dir, "primary.log")
	if err := copyFile(h.Path, ppath); err != nil {
		return c, err
	}
	reg := telemetry.NewRegistry()
	t0 := time.Now()
	st, err := openStore(ppath, reg)
	if err != nil {
		return c, err
	}
	node, _, err := serve(st, reg, cfg)
	if err != nil {
		st.Close()
		return c, err
	}
	defer node.Stop()
	cl, err := dial(node.Addr)
	if err != nil {
		return c, err
	}
	defer cl.Close()
	got, err := cl.Get(departmentT)
	c.reopen = time.Since(t0)
	o.Attempted++
	if err != nil {
		o.fail("first GET after restart: %v", err)
	} else if len(got) != h.Pop.Size.Depts {
		o.fail("first GET after restart returned %d departments, want %d", len(got), h.Pop.Size.Depts)
	}
	checkRoots(o, "restarted primary", h.Pop, h.Model, len(h.Pop.Roots), storeLookup(st, h.Pop))

	end := st.DurableEnd()
	fpath := filepath.Join(dir, "follower.log")
	freg := telemetry.NewRegistry()
	t1 := time.Now()
	fst, err := openStore(fpath, freg)
	if err != nil {
		return c, err
	}
	fnode, _, err := serve(fst, freg, server.Config{Follow: node.Addr, TraceSampleRate: cfg.TraceSampleRate})
	if err != nil {
		fst.Close()
		return c, err
	}
	werr := waitCaughtUp(fst, end, 2*time.Minute)
	c.catchup = time.Since(t1)
	o.Attempted++
	if werr != nil {
		o.fail("catch-up: %v", werr)
	}
	if err := fnode.Stop(); err != nil {
		o.fail("follower shutdown: %v", err)
	}
	o.Attempted++
	if same, err := sameFile(ppath, fpath); err != nil || !same {
		o.fail("caught-up follower log differs from the primary's (err %v)", err)
	}
	return c, nil
}

// recoverLoop repeats recover cycles until the window closes (a cycle
// that has started completes; at least one runs).
func recoverLoop(env Env, h *History, cfg server.Config, o *Outcome) ([]cycle, time.Duration, error) {
	start := time.Now()
	deadline := start.Add(env.Measure)
	var cs []cycle
	for i := 0; len(cs) == 0 || time.Now().Before(deadline); i++ {
		c, err := recoverCycle(h, i, cfg, o)
		if err != nil {
			return cs, 0, err
		}
		cs = append(cs, c)
	}
	return cs, time.Since(start), nil
}

// runRecover is the untraced recover-2k run.
func runRecover(env Env) (*Outcome, error) {
	o := &Outcome{}
	h, err := repeatSetup(env, o, func() (*History, error) { return buildHistory(env, "recover") }, func(h *History) error { return os.RemoveAll(h.Dir) })
	if err != nil {
		return o, err
	}
	cs, elapsed, err := recoverLoop(env, h, server.Config{}, o)
	if err != nil {
		return o, err
	}
	var reopen, catchup []float64
	for i, c := range cs {
		reopen = append(reopen, c.reopen.Seconds())
		catchup = append(catchup, c.catchup.Seconds())
		fmt.Printf("cycle %d: reopen %.3f s, catch-up %.3f s\n", i, c.reopen.Seconds(), c.catchup.Seconds())
	}
	o.Add("recover_steps_per_s", "ops/s", float64(2*len(cs))/elapsed.Seconds(), 2*len(cs), "restarts and catch-ups per second")
	o.Add("reopen_s", "s", Mean(reopen), len(reopen), "mean restart: Open to first GET answered")
	o.Add("catchup_s", "s", Mean(catchup), len(catchup), "mean empty-follower catch-up to the durable end")
	return o, nil
}
