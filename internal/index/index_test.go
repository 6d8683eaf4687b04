package index

import (
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"testing/quick"

	"dbpl/internal/dynamic"
	"dbpl/internal/types"
	"dbpl/internal/value"
)

var (
	personT   = types.MustParse("{Name: String, Address: {City: String}}")
	employeeT = types.MustParse("{Name: String, Address: {City: String}, Empno: Int, Dept: String}")
	studentT  = types.MustParse("{Name: String, Address: {City: String}, StudentID: Int}")
)

func person(name, city string) *value.Record {
	return value.Rec("Name", value.String(name),
		"Address", value.Rec("City", value.String(city)))
}

func employee(name, city string, empno int, dept string) *value.Record {
	r := person(name, city)
	r.Set("Empno", value.Int(int64(empno)))
	r.Set("Dept", value.String(dept))
	return r
}

func student(name, city string, id int) *value.Record {
	r := person(name, city)
	r.Set("StudentID", value.Int(int64(id)))
	return r
}

func addAll(s *Set, ds ...*dynamic.Dynamic) *Set {
	ops := make([]Op, len(ds))
	for i, d := range ds {
		ops[i] = Op{Add: d}
	}
	s, _ = s.Apply(ops)
	return s
}

// mixed returns a population with records of several types plus non-record
// members, in a fixed insertion order.
func mixed() []*dynamic.Dynamic {
	return []*dynamic.Dynamic{
		dynamic.Make(person("P1", "Austin")),
		dynamic.Make(employee("E1", "Austin", 1, "Sales")),
		dynamic.Make(person("P2", "Moose")),
		dynamic.Make(student("S1", "Austin", 100)),
		dynamic.Make(employee("E2", "Glasgow", 2, "Manuf")),
		dynamic.Make(value.Int(42)),
		dynamic.Make(value.String("anything")),
		dynamic.Make(employee("E3", "Philadelphia", 3, "Sales")),
	}
}

// refGet is the reference answer: a full scan filtering by the subtype
// check, in insertion order.
func refGet(members []*dynamic.Dynamic, want *types.Interned) []*dynamic.Dynamic {
	var out []*dynamic.Dynamic
	for _, d := range members {
		if types.SubtypeInterned(d.Interned(), want) {
			out = append(out, d)
		}
	}
	return out
}

func sameDyns(got []Entry, want []*dynamic.Dynamic) error {
	if len(got) != len(want) {
		return fmt.Errorf("len: got %d want %d", len(got), len(want))
	}
	for i := range got {
		if got[i].Dyn != want[i] {
			return fmt.Errorf("entry %d: got %v want %v", i, got[i].Dyn, want[i])
		}
	}
	for i := 1; i < len(got); i++ {
		if got[i-1].Seq >= got[i].Seq {
			return fmt.Errorf("seq order violated at %d: %d then %d", i, got[i-1].Seq, got[i].Seq)
		}
	}
	return nil
}

func TestGetEntriesMatchesReferenceScan(t *testing.T) {
	members := mixed()
	s := addAll(NewSet(), members...)
	for _, q := range []types.Type{personT, employeeT, studentT, types.Int, types.Top} {
		want := types.Intern(q)
		got, _ := s.GetEntries(want)
		if err := sameDyns(got, refGet(members, want)); err != nil {
			t.Errorf("Get[%s]: %v", q, err)
		}
	}
}

func TestMatchStatsAgreesWithGetEntries(t *testing.T) {
	s := addAll(NewSet(), mixed()...)
	for _, q := range []types.Type{personT, employeeT, types.Int, types.Top} {
		want := types.Intern(q)
		entries, m1 := s.GetEntries(want)
		n, m2 := s.MatchStats(want)
		if n != len(entries) || m1 != m2 {
			t.Errorf("MatchStats[%s] = (%d,%d), GetEntries = (%d,%d)", q, n, m2, len(entries), m1)
		}
	}
}

func TestRemoveMaintainsExtentsAndIndexes(t *testing.T) {
	members := mixed()
	s := addAll(NewSet(Def{Field: "Empno"}), members...)
	victim := members[4] // E2
	s2, stats := s.Apply([]Op{{Remove: victim}})
	if stats.EntriesTouched == 0 {
		t.Fatalf("remove touched nothing")
	}
	var left []*dynamic.Dynamic
	for _, d := range members {
		if d != victim {
			left = append(left, d)
		}
	}
	got, _ := s2.GetEntries(types.Intern(employeeT))
	if err := sameDyns(got, refGet(left, types.Intern(employeeT))); err != nil {
		t.Errorf("after remove: %v", err)
	}
	cand, ok := s2.Candidates("Empno")
	if !ok {
		t.Fatalf("Empno index gone")
	}
	for _, e := range cand {
		if e.Dyn == victim {
			t.Errorf("removed member still an index candidate")
		}
	}
	// The parent Set is untouched (COW): the victim is still there.
	before, _ := s.GetEntries(types.Intern(employeeT))
	if err := sameDyns(before, refGet(members, types.Intern(employeeT))); err != nil {
		t.Errorf("parent mutated by Apply: %v", err)
	}
}

// TestFieldIndexSoundAndComplete: the candidate set must contain every
// member that conforms to a record type requiring the field (complete),
// and the bucket statistics must reflect the atom values.
func TestFieldIndexSoundAndComplete(t *testing.T) {
	members := mixed()
	s := addAll(NewSet(Def{Field: "Dept"}), members...)
	cand, ok := s.Candidates("Dept")
	if !ok {
		t.Fatal("Dept not indexed")
	}
	in := map[*dynamic.Dynamic]bool{}
	for _, e := range cand {
		in[e.Dyn] = true
	}
	deptT := types.Intern(types.MustParse("{Dept: String}"))
	for _, d := range refGet(members, deptT) {
		if !in[d] {
			t.Errorf("member %v conforms to {Dept:String} but is not a candidate", d)
		}
	}
	fi := s.Field("Dept")
	if fi.Distinct() != 2 { // Sales, Manuf
		t.Errorf("Distinct = %d, want 2", fi.Distinct())
	}
	if got := len(fi.Bucket(value.Key(value.String("Sales")))); got != 2 {
		t.Errorf("Sales bucket = %d, want 2", got)
	}
	if fi.Defined() != 3 {
		t.Errorf("Defined = %d, want 3", fi.Defined())
	}
}

func TestWithFieldBackfillEqualsIncremental(t *testing.T) {
	members := mixed()
	inc := addAll(NewSet(Def{Field: "StudentID"}), members...)
	back := addAll(NewSet(), members...).WithField(Def{Field: "StudentID"})
	a, aok := inc.Candidates("StudentID")
	b, bok := back.Candidates("StudentID")
	if !aok || !bok {
		t.Fatal("index missing")
	}
	if len(a) != len(b) {
		t.Fatalf("candidates: incremental %d, backfill %d", len(a), len(b))
	}
	for i := range a {
		if a[i].Dyn != b[i].Dyn {
			t.Errorf("candidate %d differs", i)
		}
	}
	if inc.Field("StudentID").Distinct() != back.Field("StudentID").Distinct() {
		t.Error("Distinct differs between incremental and backfill")
	}
}

func TestDropField(t *testing.T) {
	s := addAll(NewSet(Def{Field: "Empno"}), mixed()...)
	s2, ok := s.DropField("Empno")
	if !ok {
		t.Fatal("DropField said undeclared")
	}
	if _, ok := s2.Candidates("Empno"); ok {
		t.Error("index survives drop")
	}
	if _, ok := s.Candidates("Empno"); !ok {
		t.Error("drop mutated the parent")
	}
	if _, ok := s2.DropField("Empno"); ok {
		t.Error("second drop reported declared")
	}
	if s.WithField(Def{Field: "Empno"}) != s {
		t.Error("re-declaring an existing index is not the identity")
	}
}

func TestRebuildEqualsIncremental(t *testing.T) {
	members := mixed()
	inc := addAll(NewSet(Def{Field: "Empno"}), members...)
	reb := Rebuild(members, Def{Field: "Empno"})
	for _, q := range []types.Type{personT, employeeT, types.Top} {
		a, _ := inc.GetEntries(types.Intern(q))
		b, _ := reb.GetEntries(types.Intern(q))
		if len(a) != len(b) {
			t.Fatalf("Get[%s]: incremental %d, rebuild %d", q, len(a), len(b))
		}
		for i := range a {
			if a[i].Dyn != b[i].Dyn {
				t.Errorf("Get[%s] entry %d differs", q, i)
			}
		}
	}
}

// rebuildBytes reports the bytes allocated by one Rebuild of n people
// with distinct Name keys, indexed on Name: the least of three runs, so a
// stray background allocation cannot inflate it.
func rebuildBytes(n int) uint64 {
	members := make([]*dynamic.Dynamic, n)
	for i := range members {
		members[i] = dynamic.Make(person(fmt.Sprintf("P%06d", i), "Austin"))
	}
	var least uint64
	for run := 0; run < 3; run++ {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		Rebuild(members, Def{Field: "Name"})
		runtime.ReadMemStats(&after)
		if b := after.TotalAlloc - before.TotalAlloc; run == 0 || b < least {
			least = b
		}
	}
	return least
}

// TestRebuildLinearInDistinctKeys: Rebuild copies each field's bucket
// map at most once, so four times the distinct keys costs about four
// times the bytes. A copy per added member would cost sixteen times.
func TestRebuildLinearInDistinctKeys(t *testing.T) {
	const n = 500
	small, large := rebuildBytes(n), rebuildBytes(4*n)
	if ratio := float64(large) / float64(small); ratio > 5 {
		t.Fatalf("Rebuild allocated %d bytes for %d keys and %d for %d: ratio %.1f, want <= 5",
			small, n, large, 4*n, ratio)
	}
}

func TestDefsSorted(t *testing.T) {
	s := NewSet(Def{Field: "Zeta"}, Def{Field: "Alpha"})
	defs := s.Defs()
	if len(defs) != 2 || defs[0].Field != "Alpha" || defs[1].Field != "Zeta" {
		t.Errorf("Defs = %v", defs)
	}
}

// randomMember draws a member from a small universe of shapes so random
// databases exercise multi-extent merges, the field indexes, and the odd
// (non-record) path.
func randomMember(rng *rand.Rand) *dynamic.Dynamic {
	switch rng.Intn(6) {
	case 0:
		return dynamic.Make(person(fmt.Sprintf("P%d", rng.Intn(50)), "Austin"))
	case 1:
		return dynamic.Make(employee(fmt.Sprintf("E%d", rng.Intn(50)), "Moose", rng.Intn(10), "Sales"))
	case 2:
		return dynamic.Make(employee(fmt.Sprintf("E%d", rng.Intn(50)), "Glasgow", rng.Intn(10), "Manuf"))
	case 3:
		return dynamic.Make(student(fmt.Sprintf("S%d", rng.Intn(50)), "Austin", rng.Intn(10)))
	case 4:
		return dynamic.Make(value.Int(int64(rng.Intn(100))))
	default:
		return dynamic.Make(value.String(fmt.Sprintf("s%d", rng.Intn(100))))
	}
}

// TestQuickSetEquivalentToScan is the quick-check property: after a random
// interleaving of adds and removes, every query path of the Set agrees
// with the reference full scan over the surviving members.
func TestQuickSetEquivalentToScan(t *testing.T) {
	queries := []*types.Interned{
		types.Intern(personT),
		types.Intern(employeeT),
		types.Intern(studentT),
		types.Intern(types.Int),
		types.Intern(types.Top),
	}
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		s := NewSet(Def{Field: "Empno"}, Def{Field: "StudentID"})
		var alive []*dynamic.Dynamic
		nops := 20 + rng.Intn(60)
		for i := 0; i < nops; i++ {
			if len(alive) > 0 && rng.Intn(4) == 0 {
				k := rng.Intn(len(alive))
				s, _ = s.Apply([]Op{{Remove: alive[k]}})
				alive = append(alive[:k:k], alive[k+1:]...)
			} else {
				d := randomMember(rng)
				s, _ = s.Apply([]Op{{Add: d}})
				alive = append(alive, d)
			}
		}
		if s.Len() != len(alive) {
			t.Logf("Len = %d, want %d", s.Len(), len(alive))
			return false
		}
		for _, q := range queries {
			got, _ := s.GetEntries(q)
			if err := sameDyns(got, refGet(alive, q)); err != nil {
				t.Logf("seed %d Get[%s]: %v", seed, q.Type(), err)
				return false
			}
		}
		// Index completeness: every member conforming to a record type
		// requiring the field is a candidate.
		for _, field := range []string{"Empno", "StudentID"} {
			cand, _ := s.Candidates(field)
			in := map[*dynamic.Dynamic]bool{}
			for _, e := range cand {
				in[e.Dyn] = true
			}
			ft := types.Intern(types.NewRecord(types.Field{Label: field, Type: types.Int}))
			for _, d := range refGet(alive, ft) {
				if !in[d] {
					t.Logf("seed %d: %v missing from %s candidates", seed, d, field)
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// TestConcurrentMaintenanceStress publishes successive Sets through an
// atomic pointer while readers query lock-free — the server's exact usage
// — and checks every observed snapshot is internally consistent. Run
// under -race (make race / index-tests).
func TestConcurrentMaintenanceStress(t *testing.T) {
	var pub atomic.Pointer[Set]
	pub.Store(NewSet(Def{Field: "Empno"}))
	stop := make(chan struct{})
	var wg sync.WaitGroup
	emp := types.Intern(employeeT)
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				s := pub.Load()
				got, _ := s.GetEntries(emp)
				n, _ := s.MatchStats(emp)
				if n != len(got) {
					t.Errorf("reader %d: MatchStats %d != entries %d", r, n, len(got))
					return
				}
				for i := 1; i < len(got); i++ {
					if got[i-1].Seq >= got[i].Seq {
						t.Errorf("reader %d: out of order", r)
						return
					}
				}
				if cand, ok := s.Candidates("Empno"); ok {
					for i := 1; i < len(cand); i++ {
						if cand[i-1].Seq >= cand[i].Seq {
							t.Errorf("reader %d: candidates out of order", r)
							return
						}
					}
				}
			}
		}(r)
	}
	rng := rand.New(rand.NewSource(1))
	var alive []*dynamic.Dynamic
	for i := 0; i < 3000; i++ {
		s := pub.Load()
		if len(alive) > 64 || (len(alive) > 0 && rng.Intn(3) == 0) {
			k := rng.Intn(len(alive))
			s, _ = s.Apply([]Op{{Remove: alive[k]}})
			alive = append(alive[:k:k], alive[k+1:]...)
		} else {
			d := randomMember(rng)
			s, _ = s.Apply([]Op{{Add: d}})
			alive = append(alive, d)
		}
		pub.Store(s)
	}
	close(stop)
	wg.Wait()
	final := pub.Load()
	if final.Len() != len(alive) {
		t.Errorf("final Len = %d, want %d", final.Len(), len(alive))
	}
}
