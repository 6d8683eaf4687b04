// Package index makes the paper's maintained extents — and their
// generalization, field-value indexes — first-class, immutable values that
// the server publishes behind the same atomic pointer as the committed
// state. "A type is a very large relation" (experiment E10) becomes an
// executable access path: a Set holds one maintained extent per distinct
// member type plus any number of declared field indexes, and answers a
// GET-by-subtype query by unioning the extents whose type passes the
// (cached, pointer-keyed) subtype check instead of scanning members.
//
// # Copy-on-write discipline
//
// A Set is immutable once published. Apply returns the successor Set with
// a commit group's membership delta applied, sharing every untouched
// structure with its parent. Appends may reuse spare capacity of the
// parent's backing arrays — safe under the *single-successor* rule: a Set
// may be Apply'd (or WithField'd/DropField'd) at most once, and only the
// newest Set in a lineage may be advanced. The server guarantees this by
// serializing writers through commitMu, exactly the discipline of the
// core engine's published COW slices. Readers never take a lock.
//
// Unlike the core engine's per-shard extents (16 slices re-merged on
// every read — the ~4× high-selectivity regression documented in E11),
// a Set keeps each extent as one flat, insertion-ordered slice, so a
// high-selectivity read costs exactly the result walk. E16 measures the
// repair.
//
// # Field-value indexes
//
// A Def declares an index on a record field label. The index keeps, in
// insertion order, every member whose declared type can possibly conform
// to a record type requiring that field — the 64-bit label signatures
// from the interning layer (types.LabelBit) make the membership test one
// mask check — plus hash buckets keyed by the field's atomic value for
// members that define it atomically (the join planner's statistics).
// The index is a sound prefilter, never a verdict: the planner's index
// path re-checks every candidate against the requested type, so the
// quick-check property "planner path ≡ reference scan" holds by
// construction (plan/quick tests enforce it anyway).
package index

import (
	"sort"

	"dbpl/internal/dynamic"
	"dbpl/internal/types"
	"dbpl/internal/value"
)

// Entry is one indexed member: the dynamic plus the Set-wide sequence
// number that restores insertion order when extents are unioned.
type Entry struct {
	Dyn *dynamic.Dynamic
	Seq uint64
}

// Def declares one field-value index.
type Def struct {
	// Field is the record label the index covers.
	Field string
}

// Op is one membership change of a commit group, in application order:
// Remove (when non-nil) leaves the database, then Add (when non-nil)
// enters it. A root rebind is one Op carrying both.
type Op struct {
	Remove *dynamic.Dynamic
	Add    *dynamic.Dynamic
}

// ApplyStats reports what one Apply touched, for the maintenance-cost
// telemetry.
type ApplyStats struct {
	// EntriesTouched counts entry insertions and removals summed over the
	// extent map and every field index.
	EntriesTouched int
}

// Extent is the maintained extent of one interned type: the members whose
// declared type *is* (not merely conforms to) the type, as one flat
// seq-ascending slice. A subtype query unions the extents whose types pass
// the cached subtype check.
type Extent struct {
	in    *types.Interned
	items []Entry
}

// Type returns the extent's interned type handle.
func (e *Extent) Type() *types.Interned { return e.in }

// Items returns the extent's members in insertion order. The slice is
// shared and must not be mutated.
func (e *Extent) Items() []Entry { return e.items }

// Len reports the member count.
func (e *Extent) Len() int { return len(e.items) }

// FieldIndex is one declared field-value index; see the package comment.
type FieldIndex struct {
	field string
	bit   uint64 // types.LabelBit(field): the signature prefilter mask

	// defined holds, seq-ascending, every member whose declared type is a
	// record type with the field — by record-width subtyping the complete
	// candidate set for any record type requiring it.
	defined []Entry
	// odd holds members whose declared type is not a record type at all.
	// Such members cannot be rejected by the field rule without a full
	// subtype check, so the index path keeps them as candidates too. In a
	// database of records it stays empty.
	odd []Entry
	// buckets groups the members of defined whose *value* carries the
	// field as an atom, keyed by value.Key of that atom — the maintained
	// form of the partition JoinFast builds per call, and the planner's
	// distinct-count statistic.
	buckets map[string][]Entry
}

// Field returns the indexed label.
func (fi *FieldIndex) Field() string { return fi.field }

// Defined returns the number of members whose type defines the field.
func (fi *FieldIndex) Defined() int { return len(fi.defined) }

// Distinct returns the number of distinct atomic values the field takes.
func (fi *FieldIndex) Distinct() int { return len(fi.buckets) }

// Bucket returns the members whose value defines the field as exactly the
// atom with canonical key k, in insertion order. The slice is shared.
func (fi *FieldIndex) Bucket(k string) []Entry { return fi.buckets[k] }

// hasField reports whether the member's declared type makes it a possible
// match for a record type requiring the indexed field: a record type
// carrying the field (the label-signature mask rejects most non-members
// before the lookup), or — conservatively — not a record type at all.
func (fi *FieldIndex) hasField(in *types.Interned) (member, odd bool) {
	rt, ok := in.Type().(*types.Record)
	if !ok {
		return false, true
	}
	if rt.LabelBits()&fi.bit == 0 {
		return false, false // signature: the field cannot be present
	}
	_, ok = rt.Lookup(fi.field)
	return ok, false
}

// atomOf extracts the member value's indexed field when it is an atom.
func (fi *FieldIndex) atomOf(d *dynamic.Dynamic) (string, bool) {
	rec, ok := d.Value().(*value.Record)
	if !ok {
		return "", false
	}
	fv, ok := rec.Get(fi.field)
	if !ok {
		return "", false
	}
	switch fv.Kind() {
	case value.KindInt, value.KindFloat, value.KindString, value.KindBool:
		return value.Key(fv), true
	}
	return "", false
}

// Set is an immutable collection of maintained extents and field indexes
// over one committed membership; see the package comment for the
// copy-on-write discipline.
type Set struct {
	seq    uint64 // next sequence number to assign
	total  int    // members across all extents
	byType map[*types.Interned]*Extent
	fields map[string]*FieldIndex
}

// NewSet returns an empty Set with the given field indexes declared.
func NewSet(defs ...Def) *Set {
	s := &Set{
		byType: map[*types.Interned]*Extent{},
		fields: map[string]*FieldIndex{},
	}
	for _, d := range defs {
		s.fields[d.Field] = newFieldIndex(d.Field)
	}
	return s
}

func newFieldIndex(field string) *FieldIndex {
	return &FieldIndex{field: field, bit: types.LabelBit(field), buckets: map[string][]Entry{}}
}

// Len reports the total member count.
func (s *Set) Len() int { return s.total }

// Types reports the number of distinct member types (= maintained extents).
func (s *Set) Types() int { return len(s.byType) }

// Extent returns the maintained extent for the interned type, nil when no
// member has it.
func (s *Set) Extent(in *types.Interned) *Extent { return s.byType[in] }

// Field returns the declared index for the label, nil when undeclared.
func (s *Set) Field(label string) *FieldIndex { return s.fields[label] }

// Defs returns the declared field indexes in sorted label order.
func (s *Set) Defs() []Def {
	labels := make([]string, 0, len(s.fields))
	for l := range s.fields {
		labels = append(labels, l)
	}
	sort.Strings(labels)
	out := make([]Def, len(labels))
	for i, l := range labels {
		out[i] = Def{Field: l}
	}
	return out
}

// clone is the shallow successor: maps copied, slices shared.
func (s *Set) clone() *Set {
	next := &Set{
		seq:    s.seq,
		total:  s.total,
		byType: make(map[*types.Interned]*Extent, len(s.byType)+1),
		fields: make(map[string]*FieldIndex, len(s.fields)),
	}
	for in, e := range s.byType {
		next.byType[in] = e
	}
	for l, fi := range s.fields {
		next.fields[l] = fi
	}
	return next
}

// removeEntry returns items without the entry holding d, always copying,
// and reports whether it was present.
func removeEntry(items []Entry, d *dynamic.Dynamic) ([]Entry, bool) {
	for i := range items {
		if items[i].Dyn == d {
			next := make([]Entry, 0, len(items)-1)
			next = append(next, items[:i]...)
			next = append(next, items[i+1:]...)
			return next, true
		}
	}
	return items, false
}

// Apply returns the successor Set with the commit group's ops applied in
// order, together with maintenance statistics. Apply must only be called
// on the newest Set of a lineage, at most once (the single-successor
// rule); the caller serializes writers.
func (s *Set) Apply(ops []Op) (*Set, ApplyStats) {
	b := &builder{next: s.clone(), owned: map[string]*FieldIndex{}}
	var stats ApplyStats
	for _, op := range ops {
		if op.Remove != nil {
			stats.EntriesTouched += b.remove(op.Remove)
		}
		if op.Add != nil {
			stats.EntriesTouched += b.add(op.Add)
		}
	}
	return b.next, stats
}

// builder is one Apply call's unpublished successor. The field indexes
// it has copied, bucket maps included, belong to that successor alone,
// so later ops of the same call update them in place: each field's
// bucket map is copied at most once per call, which keeps Rebuild and a
// bulk follower apply linear in the members added.
type builder struct {
	next  *Set
	owned map[string]*FieldIndex // label -> the successor's own copy
}

// field returns the successor's own copy of the field index for label,
// copying the shared one on first use.
func (b *builder) field(label string) *FieldIndex {
	if nf := b.owned[label]; nf != nil {
		return nf
	}
	fi := b.next.fields[label]
	nf := &FieldIndex{field: fi.field, bit: fi.bit, defined: fi.defined, odd: fi.odd,
		buckets: make(map[string][]Entry, len(fi.buckets)+1)}
	for k, v := range fi.buckets {
		nf.buckets[k] = v
	}
	b.owned[label] = nf
	b.next.fields[label] = nf
	return nf
}

// add appends d to its extent and every covering field index.
func (b *builder) add(d *dynamic.Dynamic) int {
	next := b.next
	e := Entry{Dyn: d, Seq: next.seq}
	next.seq++
	next.total++
	in := d.Interned()
	touched := 1
	ext := next.byType[in]
	if ext == nil {
		next.byType[in] = &Extent{in: in, items: []Entry{e}}
	} else {
		// append may reuse the parent's spare capacity: safe, because older
		// published Sets hold shorter slice headers and the single-successor
		// rule means no sibling Set appends to the same array.
		next.byType[in] = &Extent{in: in, items: append(ext.items, e)}
	}
	for l, fi := range next.fields {
		member, odd := fi.hasField(in)
		if !member && !odd {
			continue
		}
		nf := b.field(l)
		if odd {
			nf.odd = append(nf.odd, e)
		} else {
			nf.defined = append(nf.defined, e)
			if k, ok := nf.atomOf(d); ok {
				nf.buckets[k] = append(nf.buckets[k], e)
			}
		}
		touched++
	}
	return touched
}

// remove deletes d from its extent and every covering field index,
// reporting entries touched.
func (b *builder) remove(d *dynamic.Dynamic) int {
	next := b.next
	in := d.Interned()
	touched := 0
	if ext := next.byType[in]; ext != nil {
		if items, ok := removeEntry(ext.items, d); ok {
			touched++
			next.total--
			if len(items) == 0 {
				delete(next.byType, in)
			} else {
				next.byType[in] = &Extent{in: in, items: items}
			}
		}
	}
	for l, fi := range next.fields {
		member, odd := fi.hasField(in)
		if odd {
			if items, hit := removeEntry(fi.odd, d); hit {
				b.field(l).odd = items
				touched++
			}
			continue
		}
		if !member {
			continue
		}
		items, hit := removeEntry(fi.defined, d)
		if !hit {
			continue
		}
		nf := b.field(l)
		nf.defined = items
		touched++
		if k, ok := nf.atomOf(d); ok {
			if items, hit := removeEntry(nf.buckets[k], d); hit {
				if len(items) == 0 {
					delete(nf.buckets, k)
				} else {
					nf.buckets[k] = items
				}
			}
		}
	}
	return touched
}

// WithField returns the successor Set with a field index declared and
// backfilled from the current membership. Declaring an existing field is
// the identity. Single-successor rule applies.
func (s *Set) WithField(d Def) *Set {
	if _, ok := s.fields[d.Field]; ok {
		return s
	}
	next := s.clone()
	fi := newFieldIndex(d.Field)
	for _, e := range s.All() {
		member, odd := fi.hasField(e.Dyn.Interned())
		switch {
		case odd:
			fi.odd = append(fi.odd, e)
		case member:
			fi.defined = append(fi.defined, e)
			if k, ok := fi.atomOf(e.Dyn); ok {
				fi.buckets[k] = append(fi.buckets[k], e)
			}
		}
	}
	next.fields[d.Field] = fi
	return next
}

// DropField returns the successor Set without the field index, and
// whether it was declared.
func (s *Set) DropField(label string) (*Set, bool) {
	if _, ok := s.fields[label]; !ok {
		return s, false
	}
	next := s.clone()
	delete(next.fields, label)
	return next, true
}

// mergeBySeq restores global insertion order across seq-ascending parts
// with a tree of two-way merges (no comparison sort). The result may
// alias an input when only one part is non-empty.
func mergeBySeq(parts [][]Entry, total int) []Entry {
	live, last := 0, -1
	for i := range parts {
		if len(parts[i]) > 0 {
			live, last = live+1, i
		}
	}
	if live == 0 {
		return nil
	}
	if live == 1 {
		return parts[last]
	}
	cur := make([][]Entry, len(parts), len(parts)+1)
	copy(cur, parts)
	buf, alt := make([]Entry, 0, total), make([]Entry, 0, total)
	for len(cur) > 1 {
		if len(cur)%2 == 1 {
			cur = append(cur, nil)
		}
		dst := buf[:0]
		next := cur[:0]
		for i := 0; i+1 < len(cur); i += 2 {
			start := len(dst)
			dst = merge2(dst, cur[i], cur[i+1])
			next = append(next, dst[start:len(dst):len(dst)])
		}
		cur = next
		buf, alt = alt, dst
	}
	return cur[0]
}

func merge2(dst, a, b []Entry) []Entry {
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		if a[i].Seq <= b[j].Seq {
			dst = append(dst, a[i])
			i++
		} else {
			dst = append(dst, b[j])
			j++
		}
	}
	dst = append(dst, a[i:]...)
	return append(dst, b[j:]...)
}

// All returns every member in insertion order.
func (s *Set) All() []Entry {
	parts := make([][]Entry, 0, len(s.byType))
	for _, e := range s.byType {
		parts = append(parts, e.items)
	}
	return mergeBySeq(parts, s.total)
}

// GetEntries answers the subtype query: every member whose declared type
// conforms to want, in insertion order, by unioning the matching extents.
// matched reports how many extents passed the (cached) subtype check —
// the planner's merge-width estimate confirmed.
func (s *Set) GetEntries(want *types.Interned) (entries []Entry, matched int) {
	parts := make([][]Entry, 0, 8)
	total := 0
	for in, e := range s.byType {
		if types.SubtypeInterned(in, want) {
			parts = append(parts, e.items)
			total += len(e.items)
		}
	}
	return mergeBySeq(parts, total), len(parts)
}

// MatchStats sizes the subtype query without materializing it: the result
// cardinality and the number of matching extents. The cost is one cached
// subtype check per distinct member type.
func (s *Set) MatchStats(want *types.Interned) (result, matched int) {
	for in, e := range s.byType {
		if types.SubtypeInterned(in, want) {
			result += len(e.items)
			matched++
		}
	}
	return result, matched
}

// Candidates returns the index path's candidate set for a record query
// requiring the indexed field: the members whose type defines it plus the
// conservatively kept non-record-typed members, in insertion order. The
// caller must still check every candidate against the requested type. ok
// is false when the field is not indexed.
func (s *Set) Candidates(field string) (entries []Entry, ok bool) {
	fi := s.fields[field]
	if fi == nil {
		return nil, false
	}
	if len(fi.odd) == 0 {
		return fi.defined, true
	}
	return mergeBySeq([][]Entry{fi.defined, fi.odd}, len(fi.defined)+len(fi.odd)), true
}

// CandidateCount sizes the index path for a field without materializing
// it; ok is false when the field is not indexed.
func (s *Set) CandidateCount(field string) (n int, ok bool) {
	fi := s.fields[field]
	if fi == nil {
		return 0, false
	}
	return len(fi.defined) + len(fi.odd), true
}

// Rebuild constructs a Set from scratch: members added in the given
// order (their insertion order), with the given field indexes declared.
// This is the recovery fallback — a store reopened after a crash, a
// salvaged log, or a follower catching up rebuilds its Set from the
// committed roots, so an index can never be ahead of the durable state.
func Rebuild(members []*dynamic.Dynamic, defs ...Def) *Set {
	s := NewSet(defs...)
	ops := make([]Op, len(members))
	for i, d := range members {
		ops[i] = Op{Add: d}
	}
	s, _ = s.Apply(ops)
	return s
}
