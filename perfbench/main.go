// Command perfbench is the repository benchmark: it boots a server over a
// real intrinsic store holding a 2,000-root population, drives it through
// the public client on loopback TCP, checks every output, and prints every
// metric by name and unit. The last line of standard output is one JSON
// object: {"correct", "attempted", "failed", "metrics"}.
//
//	perfbench --workload write-2k|read-2k|recover-2k --seed N --seconds S --trace 0|1
//
// With --trace 0 the metrics are the end-to-end ones (untraced run); with
// --trace 1 they are the per-layer ones, from a run with server span
// sampling at 1 plus a single-goroutine replay through each layer's
// public functions. See README.md.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"time"
)

// workloads maps each workload to its untraced run, its set-up repeats,
// and the named metrics behind the end-to-end slots ops_per_s, p50_ms and
// tail_ms. read-2k's p50_ms is GET[Employee]'s median: over all
// GETs the median falls in the gap between the Student and Employee modes
// and jumps with the seed's share of each.
var workloads = map[string]struct {
	run    func(Env) (*Outcome, error)
	setups int
	slots  [3]string
}{
	"write-2k":   {runWrite, 5, [3]string{"put_ops_per_s", "put_p50_ms", "put_p95_ms"}},
	"read-2k":    {runRead, 5, [3]string{"read_ops_per_s", "get_employee_p50_ms", "get_p99_ms"}},
	"recover-2k": {runRecover, 3, [3]string{"recover_steps_per_s", "reopen_s", "catchup_s"}},
}

// endToEnd lists the end-to-end slots with their units, in BENCHMARK.json
// order; setup_s and heap_mb are measured under those names.
var endToEnd = []struct{ name, unit string }{
	{"setup_s", "s"}, {"heap_mb", "MB"}, {"ops_per_s", "ops/s"}, {"p50_ms", "ms"}, {"tail_ms", "ms"},
}

// perLayer lists the per-layer metrics every traced run reports, with
// their units; exact marks the deterministic work counts, which repeat
// exactly for a seed. README.md gives each one's source and the
// end-to-end metric it should move.
var perLayer = []struct {
	name, unit string
	exact      bool
}{
	{"intrinsic.stage_ms", "ms", false},
	{"intrinsic.fsync_ms", "ms", false},
	{"intrinsic.nodes_encoded_per_commit", "count", true},
	{"intrinsic.nodes_written_per_commit", "count", true},
	{"intrinsic.bytes_per_commit", "bytes", true},
	{"intrinsic.open_ms", "ms", false},
	{"intrinsic.replay_bytes", "bytes", true},
	{"intrinsic.log_amp", "ratio", true},
	{"intrinsic.read_groups_ms", "ms", false},
	{"intrinsic.apply_group_ms", "ms", false},
	{"server.commit_ms", "ms", false},
	{"server.lock_wait_ms", "ms", false},
	{"server.publish_ms", "ms", false},
	{"server.get_ms", "ms", false},
	{"server.new_ms", "ms", false},
	{"server.repl_groups_applied", "count", true},
	{"server.repl_bytes_shipped", "bytes", true},
	{"core.fork_update_ms", "ms", false},
	{"core.get_values_ms", "ms", false},
	{"index.apply_ms", "ms", false},
	{"index.entries_touched_per_commit", "count", true},
	{"index.exec_ms", "ms", false},
	{"index.rebuild_ms", "ms", false},
	{"plan.plan_us", "us", false},
	{"plan.path_share.extent", "ratio", false},
	{"plan.path_share.index", "ratio", false},
	{"plan.path_share.scan", "ratio", false},
	{"plan.items_per_result", "ratio", false},
	{"relation.join_ms", "ms", false},
	{"codec.marshal_ms", "ms", false},
	{"codec.unmarshal_ms", "ms", false},
	{"codec.bytes_per_result", "bytes", true},
	{"codec.allocs_per_result", "count", true},
	{"wire.frame_ms", "ms", false},
	{"client.get_outside_server_ms", "ms", false},
	{"client.retries", "count", true},
	{"trace.overhead_pct", "pct", false},
}

type jsonMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool                  `json:"correct"`
	Attempted int                   `json:"attempted"`
	Failed    int                   `json:"failed"`
	Metrics   map[string]jsonMetric `json:"metrics"`
}

func main() {
	workload := flag.String("workload", "", "write-2k, read-2k or recover-2k")
	seed := flag.Int64("seed", 1, "workload seed")
	seconds := flag.Float64("seconds", 10, "length of the measured loop")
	trace := flag.Int("trace", 0, "1: per-layer traced run; 0: end-to-end run")
	dir := flag.String("dir", ".bench_build/run", "scratch directory for store logs")
	flag.Parse()

	if _, ok := workloads[*workload]; !ok {
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q\n", *workload)
		os.Exit(2)
	}
	env := Env{
		Seed:    *seed,
		Size:    Full,
		Measure: time.Duration(*seconds * float64(time.Second)),
		Clients: 2,
	}
	abs, err := filepath.Abs(filepath.Join(*dir, fmt.Sprintf("%s-%d", *workload, os.Getpid())))
	if err != nil {
		fatal(err)
	}
	env.Dir = abs
	defer os.RemoveAll(env.Dir)

	res, err := run(*workload, env, *trace == 1)
	os.RemoveAll(env.Dir)
	if err != nil {
		fatal(err)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fatal(err)
	}
	fmt.Println(string(line))
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "perfbench:", err)
	os.Exit(1)
}

// run executes one workload run, prints the human-readable report, and
// returns the result line.
func run(name string, env Env, traced bool) (*result, error) {
	w := workloads[name]
	if env.Setups == 0 {
		env.Setups = w.setups
	}
	fmt.Printf("perfbench %s seed=%d size=%+v measure=%v trace=%v\n", name, env.Seed, env.Size, env.Measure, traced)
	var o *Outcome
	var err error
	if traced {
		o, err = runTraced(name, env)
	} else {
		o, err = w.run(env)
	}
	if err != nil {
		return nil, err
	}
	for _, m := range o.Metrics() {
		fmt.Println(m.Line())
	}
	for _, e := range o.Errors {
		fmt.Println("check failed:", e)
	}
	ratio := 0.0
	if o.Attempted > 0 {
		ratio = float64(o.Failed) / float64(o.Attempted)
	}
	fmt.Printf("%-40s %14g %-6s n=%d  (failed, refused and wrong-output operations / attempted)\n", "error_ratio", ratio, "ratio", o.Attempted)

	res := &result{Correct: o.Failed == 0, Attempted: o.Attempted, Failed: o.Failed, Metrics: map[string]jsonMetric{}}
	if traced {
		for _, l := range perLayer {
			m, ok := o.Get(l.name)
			if !ok || !m.OK || m.Unit != l.unit {
				return nil, fmt.Errorf("per-layer metric %s (%s) was not measured", l.name, l.unit)
			}
			res.Metrics[l.name] = jsonMetric{m.Value, m.Unit}
		}
		return res, nil
	}
	fmt.Print("end-to-end slots:")
	var unsupported []string
	for i, slot := range endToEnd {
		src := slot.name
		if i >= 2 {
			src = w.slots[i-2]
		}
		fmt.Printf(" %s=%s", slot.name, src)
		m, ok := o.Get(src)
		if !ok || !m.OK {
			unsupported = append(unsupported, slot.name)
			continue
		}
		v := m.Value
		if m.Unit == "s" && slot.unit == "ms" {
			v *= 1000
		}
		res.Metrics[slot.name] = jsonMetric{v, slot.unit}
	}
	fmt.Println()
	for _, name := range unsupported {
		fmt.Printf("end-to-end %s is unsupported in this run; left out of the result\n", name)
	}
	return res, nil
}
