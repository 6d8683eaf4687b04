package telemetry

import (
	"bufio"
	"errors"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestHistogramExemplars(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("lat", UnitDuration, []int64{10, 100, 1000})
	h.Observe(5) // no exemplar
	h.ObserveExemplar(50, 0xAAA)
	h.ObserveExemplar(60, 0xBBB) // same bucket: last one wins
	h.ObserveExemplar(5000, 0xCCC)

	hs, ok := r.Snapshot().Histogram("lat")
	if !ok {
		t.Fatal("histogram missing from snapshot")
	}
	if hs.Exemplars == nil {
		t.Fatal("no exemplars captured")
	}
	if hs.Exemplars[0] != 0 || hs.Exemplars[1] != 0xBBB || hs.Exemplars[3] != 0xCCC {
		t.Fatalf("exemplars = %v", hs.Exemplars)
	}

	// ExemplarNear: the p99 rank lands in the overflow bucket → 0xCCC;
	// a mid-rank quantile falls in the 100-bucket → 0xBBB.
	if got := hs.ExemplarNear(0.99); got != 0xCCC {
		t.Fatalf("ExemplarNear(0.99) = %#x, want 0xCCC", got)
	}
	if got := hs.ExemplarNear(0.5); got != 0xBBB {
		t.Fatalf("ExemplarNear(0.5) = %#x, want 0xBBB", got)
	}

	// A histogram with no traced observations snapshots nil exemplars.
	r2 := NewRegistry()
	r2.Histogram("plain", UnitCount, []int64{1}).Observe(1)
	if hs, _ := r2.Snapshot().Histogram("plain"); hs.Exemplars != nil {
		t.Fatalf("untraced histogram has exemplars: %v", hs.Exemplars)
	}
	if (HistogramSnapshot{}).ExemplarNear(0.5) != 0 {
		t.Fatal("empty histogram ExemplarNear != 0")
	}
}

func TestSnapshotCodecCarriesExemplars(t *testing.T) {
	r := NewRegistry()
	r.Histogram("lat", UnitDuration, []int64{10, 100}).ObserveExemplar(50, 0xFEED)
	r.Histogram("plain", UnitCount, []int64{1}).Observe(1)
	s := r.Snapshot()
	got, err := UnmarshalSnapshot(s.AppendBinary(nil))
	if err != nil {
		t.Fatal(err)
	}
	lat, _ := got.Histogram("lat")
	if lat.Exemplars == nil || lat.Exemplars[1] != 0xFEED {
		t.Fatalf("decoded exemplars = %v", lat.Exemplars)
	}
	plain, _ := got.Histogram("plain")
	if plain.Exemplars != nil {
		t.Fatalf("plain histogram decoded exemplars: %v", plain.Exemplars)
	}
}

// TestSnapshotCodecAcceptsV1: the codec accepts exactly its current
// version. A version-1 payload (the layout before histogram exemplars) is
// refused with ErrBadSnapshot; the same bytes stamped with the current
// version decode.
func TestSnapshotCodecAcceptsV1(t *testing.T) {
	// A registry without histograms encodes identically in both versions
	// but for the version byte.
	r := NewRegistry()
	r.Counter("c").Add(3)
	cur := r.Snapshot().AppendBinary(nil)
	if got, err := UnmarshalSnapshot(cur); err != nil {
		t.Fatal(err)
	} else if v, _ := got.Counter("c"); v != 3 {
		t.Fatalf("counter = %d", v)
	}
	v1 := append([]byte(nil), cur...)
	v1[1] = 1
	if _, err := UnmarshalSnapshot(v1); !errors.Is(err, ErrBadSnapshot) {
		t.Fatalf("v1 payload: err = %v, want ErrBadSnapshot", err)
	}
}

func TestSnapshotDelta(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("reqs")
	g := r.Gauge("inflight")
	h := r.Histogram("lat", UnitDuration, []int64{10, 100})
	c.Add(5)
	g.Set(2)
	h.Observe(50)
	prev := r.Snapshot()

	c.Add(7)
	g.Set(9)
	h.Observe(5)
	h.Observe(50)
	time.Sleep(time.Millisecond)
	cur := r.Snapshot()

	d := cur.Delta(prev)
	if !d.TakenAt.After(prev.TakenAt) {
		t.Fatal("delta TakenAt not current")
	}
	if v, _ := d.Counter("reqs"); v != 7 {
		t.Fatalf("counter delta = %d, want 7", v)
	}
	if v, _ := d.Gauge("inflight"); v != 9 {
		t.Fatalf("gauge in delta = %d, want current value 9", v)
	}
	dh, _ := d.Histogram("lat")
	if dh.Count != 2 || dh.Counts[0] != 1 || dh.Counts[1] != 1 || dh.Sum != 55 {
		t.Fatalf("histogram delta = %+v", dh)
	}

	// A counter that shrank (server restart) passes through whole.
	shrunk := &Snapshot{Counters: []NamedCounter{{Name: "reqs", Value: 3}}}
	if v, _ := cur.Delta(&Snapshot{Counters: []NamedCounter{{Name: "reqs", Value: 100}}}).Counter("reqs"); v != 12 {
		t.Fatalf("restart counter delta = %d, want full value 12", v)
	}
	_ = shrunk
	// A metric absent from prev passes through whole.
	if v, _ := cur.Delta(&Snapshot{}).Counter("reqs"); v != 12 {
		t.Fatalf("fresh counter delta = %d, want 12", v)
	}
}

// TestWritePromHelpAndBuckets is the satellite's parse-back test: the
// exposition carries # HELP/# TYPE for families with help text, each
// histogram's bucket series is cumulative-monotone, and the last bucket
// is le="+Inf" and equals _count.
func TestWritePromHelpAndBuckets(t *testing.T) {
	r := NewRegistry()
	r.SetHelp("dbpl_lat_seconds", "request latency by opcode")
	for _, op := range []string{"GET", "PUT"} {
		h := r.Histogram(`dbpl_lat_seconds{op="`+op+`"}`, UnitDuration, DurationBuckets)
		for i := 0; i < 100; i++ {
			h.Observe(int64(i) * int64(time.Microsecond))
		}
	}
	r.Counter("dbpl_reqs_total").Add(4)
	r.SetHelp("dbpl_reqs_total", "requests served")

	var sb strings.Builder
	if err := r.Snapshot().WriteProm(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()

	for _, want := range []string{
		"# HELP dbpl_lat_seconds request latency by opcode\n# TYPE dbpl_lat_seconds histogram",
		"# HELP dbpl_reqs_total requests served\n# TYPE dbpl_reqs_total counter",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("exposition missing %q:\n%s", want, out)
		}
	}
	if n := strings.Count(out, "# HELP dbpl_lat_seconds"); n != 1 {
		t.Fatalf("HELP emitted %d times for one family, want 1", n)
	}

	// Parse the buckets back per series and assert the contract.
	type series struct {
		cums   []uint64
		sawInf bool
		count  uint64
	}
	got := map[string]*series{}
	sc := bufio.NewScanner(strings.NewReader(out))
	for sc.Scan() {
		line := sc.Text()
		if strings.HasPrefix(line, "#") {
			continue
		}
		name, valStr, ok := strings.Cut(line, " ")
		if !ok {
			t.Fatalf("unparseable line %q", line)
		}
		switch {
		case strings.Contains(name, "_bucket{"):
			key := name[:strings.Index(name, "_bucket{")]
			labels := name[strings.Index(name, "{"):]
			op := ""
			if i := strings.Index(labels, `op="`); i >= 0 {
				op = labels[i+4 : i+4+strings.Index(labels[i+4:], `"`)]
			}
			s := got[key+op]
			if s == nil {
				s = &series{}
				got[key+op] = s
			}
			v, err := strconv.ParseUint(valStr, 10, 64)
			if err != nil {
				t.Fatalf("bucket value %q: %v", valStr, err)
			}
			s.cums = append(s.cums, v)
			if strings.Contains(labels, `le="+Inf"`) {
				s.sawInf = true
			}
		case strings.Contains(name, "_count"):
			key := strings.Split(name, "_count")[0]
			op := ""
			if i := strings.Index(name, `op="`); i >= 0 {
				op = name[i+4 : i+4+strings.Index(name[i+4:], `"`)]
			}
			if s := got[key+op]; s != nil {
				s.count, _ = strconv.ParseUint(valStr, 10, 64)
			}
		}
	}
	if len(got) != 2 {
		t.Fatalf("parsed %d bucket series, want 2", len(got))
	}
	for key, s := range got {
		if !s.sawInf {
			t.Fatalf("series %s has no +Inf bucket", key)
		}
		for i := 1; i < len(s.cums); i++ {
			if s.cums[i] < s.cums[i-1] {
				t.Fatalf("series %s buckets not cumulative-monotone: %v", key, s.cums)
			}
		}
		if last := s.cums[len(s.cums)-1]; last != s.count || last != 100 {
			t.Fatalf("series %s +Inf bucket %d != count %d (want 100)", key, last, s.count)
		}
	}
}

// TestSlowLogConcurrentWriters is the -race stress for the slow-op ring:
// racing writers above and below the threshold must never lose an
// above-threshold entry while the ring has room, and Total must count
// exactly the kept ones.
func TestSlowLogConcurrentWriters(t *testing.T) {
	const (
		writers = 8
		slowPer = 16 // 128 slow entries, ring capacity 256
		fastPer = 200
	)
	sl := NewSlowLog(256, 10*time.Millisecond)
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < slowPer; i++ {
				sl.Record(SlowOp{Op: "PUT", Duration: 20 * time.Millisecond,
					Trace: uint64(w*slowPer + i + 1)})
			}
			for i := 0; i < fastPer; i++ {
				sl.Record(SlowOp{Op: "GET", Duration: time.Millisecond})
			}
		}(w)
	}
	wg.Wait()
	snap := sl.Snapshot()
	seen := map[uint64]bool{}
	for _, op := range snap {
		if op.Trace != 0 {
			seen[op.Trace] = true
		}
	}
	if len(seen) != writers*slowPer {
		t.Fatalf("lost slow entries: %d of %d retained", len(seen), writers*slowPer)
	}
	if sl.Total() != uint64(writers*slowPer) {
		t.Fatalf("Total = %d, want %d", sl.Total(), writers*slowPer)
	}
}
