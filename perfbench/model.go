package main

import (
	"fmt"
	"math/rand"

	"dbpl/internal/types"
	"dbpl/internal/value"
)

// Kind is the type a root is bound at.
type Kind uint8

const (
	Person Kind = iota
	Employee
	Student
	Department
)

func (k Kind) String() string {
	return [...]string{"Person", "Employee", "Student", "Department"}[k]
}

// The declared types. Employee and Student are subtypes of Person;
// Department shares only Dept with Employee, so Employee ⋈ Department is
// the paper's Figure 1 join: one merged record per employee.
var (
	personT     = types.MustParse("{Name: String, Address: {City: String, Zip: Int}}")
	employeeT   = types.MustParse("{Name: String, Address: {City: String, Zip: Int}, Empno: Int, Dept: String}")
	studentT    = types.MustParse("{Name: String, Address: {City: String, Zip: Int}, StudentID: Int}")
	departmentT = types.MustParse("{Dept: String, Floor: Int}")

	kindType = [...]types.Type{personT, employeeT, studentT, departmentT}
	// kindIn holds the interned declared types, so result checks compare
	// witness types by pointer.
	kindIn = [...]*types.Interned{types.Intern(personT), types.Intern(employeeT), types.Intern(studentT), types.Intern(departmentT)}
)

// indexFields are the declared field indexes: Dept (10 values), Empno
// (unique among employees) and Name (unique over all roots).
var indexFields = []string{"Dept", "Empno", "Name"}

var cities = []string{"Moose", "Billings", "Casper", "Laramie", "Helena", "Cody", "Sheridan", "Bozeman"}

// Size fixes the population and the history.
type Size struct {
	Roots   int // r-roots (Person, Employee, Student)
	Depts   int // Department roots and Dept values
	History int // one-key commits appended before recover-2k's loop
}

// Full is the benchmark's size.
var Full = Size{Roots: 2000, Depts: 10, History: 100}

// Root is one generated binding.
type Root struct {
	Name  string
	Kind  Kind
	Value *value.Record
}

// Population is the seed's store content: Roots r000000… followed by the
// Department roots. Floors maps each Dept value to its department's Floor.
type Population struct {
	Seed   int64
	Size   Size
	Roots  []Root
	Floors map[string]int64
}

// RKeys is the number of overwritable r-roots (the first Size.Roots).
func (p *Population) RKeys() int { return p.Size.Roots }

// Count returns how many roots are bound at kind k.
func (p *Population) Count(k Kind) int {
	n := 0
	for _, r := range p.Roots {
		if r.Kind == k {
			n++
		}
	}
	return n
}

func deptName(i int) string { return fmt.Sprintf("D%02d", i) }

// Generate builds the population for seed: 10% Employees, 2% Students,
// the rest Persons, then one Department per Dept value. The seed picks
// which roots are of which kind; the counts are fixed, because GET cost
// follows the result count and a seed must not change the work.
func Generate(seed int64, size Size) *Population {
	rng := rand.New(rand.NewSource(seed))
	p := &Population{Seed: seed, Size: size, Floors: map[string]int64{}}
	kinds := make([]Kind, size.Roots)
	for rank, i := range rng.Perm(size.Roots) {
		switch {
		case rank < size.Roots/10:
			kinds[i] = Employee
		case rank < size.Roots/10+size.Roots/50:
			kinds[i] = Student
		}
	}
	empno := int64(1000)
	for i, kind := range kinds {
		name := fmt.Sprintf("r%06d", i)
		rec := value.Rec("Name", value.String("n"+name[1:]),
			"Address", value.Rec("City", value.String(cities[rng.Intn(len(cities))]), "Zip", value.Int(rng.Intn(100000))))
		switch kind {
		case Employee:
			empno++
			rec.Set("Empno", value.Int(empno))
			rec.Set("Dept", value.String(deptName(rng.Intn(size.Depts))))
		case Student:
			rec.Set("StudentID", value.Int(rng.Int63n(1e9)))
		}
		p.Roots = append(p.Roots, Root{Name: name, Kind: kind, Value: rec})
	}
	for i := 0; i < size.Depts; i++ {
		floor := int64(1 + rng.Intn(20))
		p.Floors[deptName(i)] = floor
		p.Roots = append(p.Roots, Root{
			Name:  fmt.Sprintf("dept%02d", i),
			Kind:  Department,
			Value: value.Rec("Dept", value.String(deptName(i)), "Floor", value.Int(floor)),
		})
	}
	return p
}

// Put is one generated one-key overwrite: root Key (an index into
// Population.Roots) rebound to Value at the root's own kind.
type Put struct {
	Key   int
	Value *value.Record
}

// WriteStream yields the seed's overwrites for one writer. Writer w of n
// owns the keys i with i%n == w, so each key has one writer and its last
// acked value is well defined. The new record keeps the root's kind and
// identity fields and draws a fresh Zip, and for an Employee a fresh Dept.
type WriteStream struct {
	pop  *Population
	rng  *rand.Rand
	w, n int
}

// NewWriteStream returns writer w's stream of n writers; stream selects
// an independent sequence (write-2k uses 0, recover-2k's history 1, the
// layer replay 2).
func NewWriteStream(p *Population, stream, w, n int) *WriteStream {
	return &WriteStream{pop: p, rng: rand.New(rand.NewSource(mix(p.Seed, stream, w))), w: w, n: n}
}

// mix derives an independent per-stream seed.
func mix(seed int64, stream, w int) int64 {
	return seed*1_000_003 + int64(stream)*7919 + int64(w)*104729 + 1
}

// Next returns the next overwrite. cur is the writer's view of the
// current values (the model), read for the fields that stay the same.
func (s *WriteStream) Next(cur []*value.Record) Put {
	owned := (s.pop.RKeys() - s.w + s.n - 1) / s.n
	key := s.w + s.n*s.rng.Intn(owned)
	old := cur[key]
	city := old.MustGet("Address").(*value.Record).MustGet("City")
	rec := value.Rec("Name", old.MustGet("Name"),
		"Address", value.Rec("City", city, "Zip", value.Int(s.rng.Intn(100000))))
	switch s.pop.Roots[key].Kind {
	case Employee:
		rec.Set("Empno", old.MustGet("Empno"))
		rec.Set("Dept", value.String(deptName(s.rng.Intn(s.pop.Size.Depts))))
	case Student:
		rec.Set("StudentID", old.MustGet("StudentID"))
	}
	return Put{Key: key, Value: rec}
}

// Values returns the population's values indexed like Roots: the model a
// workload updates as its writes are acked.
func (p *Population) Values() []*value.Record {
	out := make([]*value.Record, len(p.Roots))
	for i, r := range p.Roots {
		out[i] = r.Value
	}
	return out
}

// ReadOp is one read-2k request.
type ReadOp uint8

const (
	GetEmployee ReadOp = iota
	GetStudent
	JoinEmpDept
)

func (o ReadOp) String() string {
	return [...]string{"GET[Employee]", "GET[Student]", "JOIN[Employee,Department]"}[o]
}

// ReadStream yields the read mix: 49% GET[Employee], 49% GET[Student],
// 2% JOIN Employee ⋈ Department.
type ReadStream struct{ rng *rand.Rand }

// NewReadStream returns reader r's independent stream.
func NewReadStream(seed int64, stream, r int) *ReadStream {
	return &ReadStream{rng: rand.New(rand.NewSource(mix(seed, stream, r)))}
}

// Next returns the next read.
func (s *ReadStream) Next() ReadOp {
	switch x := s.rng.Float64(); {
	case x < 0.49:
		return GetEmployee
	case x < 0.98:
		return GetStudent
	default:
		return JoinEmpDept
	}
}
