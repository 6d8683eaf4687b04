package main

import (
	"testing"
	"time"

	"dbpl/internal/value"
)

func samePopulation(t *testing.T, a, b *Population) {
	t.Helper()
	if len(a.Roots) != len(b.Roots) {
		t.Fatalf("root counts differ: %d vs %d", len(a.Roots), len(b.Roots))
	}
	for i := range a.Roots {
		x, y := a.Roots[i], b.Roots[i]
		if x.Name != y.Name || x.Kind != y.Kind || !value.Equal(x.Value, y.Value) {
			t.Fatalf("root %d differs: %v %v %v vs %v %v %v", i, x.Name, x.Kind, x.Value, y.Name, y.Kind, y.Value)
		}
	}
}

// writeKeys returns the first n keys and values of writer w's stream.
func writeKeys(p *Population, w, n int) ([]int, []*value.Record) {
	model := p.Values()
	ws := NewWriteStream(p, 0, w, 2)
	var keys []int
	var vals []*value.Record
	for i := 0; i < n; i++ {
		put := ws.Next(model)
		model[put.Key] = put.Value
		keys = append(keys, put.Key)
		vals = append(vals, put.Value)
	}
	return keys, vals
}

func TestSameSeedSameInputs(t *testing.T) {
	a, b := Generate(7, Full), Generate(7, Full)
	samePopulation(t, a, b)
	for w := 0; w < 2; w++ {
		ka, va := writeKeys(a, w, 200)
		kb, vb := writeKeys(b, w, 200)
		for i := range ka {
			if ka[i] != kb[i] || !value.Equal(va[i], vb[i]) {
				t.Fatalf("writer %d op %d differs", w, i)
			}
		}
	}
	ra, rb := NewReadStream(7, 0, 1), NewReadStream(7, 0, 1)
	for i := 0; i < 500; i++ {
		if x, y := ra.Next(), rb.Next(); x != y {
			t.Fatalf("read op %d differs: %v vs %v", i, x, y)
		}
	}
}

func TestOtherSeedSameShape(t *testing.T) {
	a, b := Generate(7, Full), Generate(8, Full)
	if len(a.Roots) != len(b.Roots) || a.RKeys() != 2000 || len(a.Floors) != 10 {
		t.Fatalf("population sizes differ: %d vs %d roots", len(a.Roots), len(b.Roots))
	}
	for i := range a.Roots {
		if a.Roots[i].Name != b.Roots[i].Name {
			t.Fatalf("root %d named %s vs %s", i, a.Roots[i].Name, b.Roots[i].Name)
		}
	}
	for _, p := range []*Population{a, b} {
		emp, stu, dep := p.Count(Employee), p.Count(Student), p.Count(Department)
		if emp != 200 || stu != 40 || dep != 10 {
			t.Errorf("seed %d: %d employees, %d students, %d departments; want 200, 40, 10", p.Seed, emp, stu, dep)
		}
	}
	moved := 0
	for i := range a.Roots {
		if a.Roots[i].Kind != b.Roots[i].Kind {
			moved++
		}
	}
	if moved == 0 {
		t.Errorf("seeds 7 and 8 give every root the same kind")
	}
	ka, _ := writeKeys(a, 1, 200)
	kb, _ := writeKeys(b, 1, 200)
	same := 0
	for i := range ka {
		if ka[i]%2 != 1 || kb[i]%2 != 1 || ka[i] >= a.RKeys() || kb[i] >= b.RKeys() {
			t.Fatalf("writer 1 wrote key %d / %d outside its share", ka[i], kb[i])
		}
		if ka[i] == kb[i] {
			same++
		}
	}
	if same > 20 {
		t.Errorf("seeds 7 and 8 share %d of 200 write keys", same)
	}
}

// TestWriteKeepsKind checks an overwrite keeps the root's kind and
// identity fields.
func TestWriteKeepsKind(t *testing.T) {
	p := Generate(3, Full)
	model := p.Values()
	ws := NewWriteStream(p, 0, 0, 2)
	for i := 0; i < 500; i++ {
		put := ws.Next(model)
		old, kind := model[put.Key], p.Roots[put.Key].Kind
		if !value.Conforms(put.Value, kindType[kind]) || !value.Equal(put.Value.MustGet("Name"), old.MustGet("Name")) {
			t.Fatalf("op %d rebinds %s (%v) to %v", i, p.Roots[put.Key].Name, kind, put.Value)
		}
		if kind == Employee && !value.Equal(put.Value.MustGet("Empno"), old.MustGet("Empno")) {
			t.Fatalf("op %d changes an Empno", i)
		}
		model[put.Key] = put.Value
	}
}

func TestPercentileRule(t *testing.T) {
	seq := func(n int) []float64 {
		s := make([]float64, n)
		for i := range s {
			s[i] = float64(n - i) // descending: Percentile must sort a copy
		}
		return s
	}
	for _, c := range []struct {
		n    int
		q    float64
		ok   bool
		want float64
	}{
		{0, 0.5, false, 0},
		{19, 0.5, false, 0},
		{20, 0.5, true, 10},
		{199, 0.95, false, 0},
		{200, 0.95, true, 190},
		{999, 0.99, false, 0},
		{1000, 0.99, true, 990},
		{3000, 0.99, true, 2970},
	} {
		s := seq(c.n)
		got, ok := Percentile(s, c.q)
		if ok != c.ok || (ok && got != c.want) {
			t.Errorf("Percentile(n=%d, q=%v) = %v, %v; want %v, %v", c.n, c.q, got, ok, c.want, c.ok)
		}
		if c.n > 0 && s[0] != float64(c.n) {
			t.Errorf("Percentile reordered its input")
		}
	}
	var r Report
	r.AddPercentile("x_ms", "ms", seq(50), 0.99)
	if m, _ := r.Get("x_ms"); m.OK || m.N != 50 {
		t.Errorf("p99 of 50 samples reported as %+v; want unsupported with n=50", m)
	}
}

// tiny is the smoke-test size.
var tiny = Size{Roots: 60, Depts: 4, History: 6}

func tinyEnv(t *testing.T, seed int64) Env {
	return Env{Dir: t.TempDir(), Seed: seed, Size: tiny, Measure: time.Second, Setups: 2, Clients: 2}
}

// TestSmoke runs every workload at the tiny size, untraced and traced,
// and checks each emits every metric name with its unit and passes its
// output checks.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	for name := range workloads {
		for _, traced := range []bool{false, true} {
			res, err := run(name, tinyEnv(t, 5), traced)
			if err != nil {
				t.Fatalf("%s traced=%v: %v", name, traced, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("%s traced=%v: correct=%v attempted=%d failed=%d", name, traced, res.Correct, res.Attempted, res.Failed)
			}
			want := map[string]string{}
			if traced {
				for _, l := range perLayer {
					want[l.name] = l.unit
				}
			} else {
				for _, e := range endToEnd {
					want[e.name] = e.unit
				}
			}
			for n, u := range want {
				if m, ok := res.Metrics[n]; !ok || m.Unit != u {
					t.Errorf("%s traced=%v: metric %s = %+v, want unit %s", name, traced, n, m, u)
				}
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s traced=%v: %d metrics, want %d", name, traced, len(res.Metrics), len(want))
			}
		}
	}
}

// TestExactCountsRepeat checks the (exact) per-layer counts repeat across
// two traced runs with the same seed.
func TestExactCountsRepeat(t *testing.T) {
	if testing.Short() {
		t.Skip("runs traced workloads twice")
	}
	for name := range workloads {
		a, err := run(name, tinyEnv(t, 9), true)
		if err != nil {
			t.Fatal(err)
		}
		b, err := run(name, tinyEnv(t, 9), true)
		if err != nil {
			t.Fatal(err)
		}
		for _, l := range perLayer {
			if l.exact && a.Metrics[l.name] != b.Metrics[l.name] {
				t.Errorf("%s: %s = %v then %v", name, l.name, a.Metrics[l.name].Value, b.Metrics[l.name].Value)
			}
		}
	}
}
