package relation

import "fmt"

// FNV-1a over machine words. Distribution across map buckets is handled by
// the runtime's own hashing of the uint64 key, and equality of colliding
// rows is always verified against the stored values, so word-wise (rather
// than byte-wise) folding is safe.
const (
	fnvOffset64 = 14695981039346656037
	fnvPrime64  = 1099511628211
)

// hashVals hashes a full row.
func hashVals(vals []int) uint64 {
	h := uint64(fnvOffset64)
	for _, v := range vals {
		h ^= uint64(v)
		h *= fnvPrime64
	}
	return h
}

// hashRowCols hashes the projection of the row starting at base in data onto
// the given column offsets.
func hashRowCols(data []int, base int, cols []int) uint64 {
	h := uint64(fnvOffset64)
	for _, c := range cols {
		h ^= uint64(data[base+c])
		h *= fnvPrime64
	}
	return h
}

// Set is the library's tuple store: a deduplicated set of fixed-arity integer
// rows. A Relation embeds one, and csp.Table and structure.Interp wrap one,
// so a constraint relation, a structure's interpretation and a database
// relation share one representation.
//
// Rows live in a single flat row-major value array (the arena). Membership
// is an integer-hash index: a map from the FNV-1a hash of a row to the most
// recently inserted row with that hash, chained through a per-row next
// array, so lookups allocate nothing and hash collisions are resolved by
// comparing the stored values.
//
// Add builds the index and keeps the row views of Tuples current, so a Set
// filled only through Add (or made by Clone) is never mutated by a read and
// may be read from many goroutines at once. Relation operators append their
// provably duplicate-free results without the index and build it lazily;
// see the package comment. A Set must not be copied after first use.
type Set struct {
	k     int   // arity
	n     int   // row count
	data  []int // flat row-major values, len == n*k
	index map[uint64]int32
	next  []int32 // per-row chain to earlier same-hash rows; -1 ends
	views [][]int // row views into data, kept by Add
}

// MakeSet returns an empty set of rows of the given arity.
func MakeSet(arity int) Set { return Set{k: arity} }

// Arity returns the length of every row.
func (s *Set) Arity() int { return s.k }

// Len returns the number of rows.
func (s *Set) Len() int { return s.n }

// row returns a view of row i into the arena.
func (s *Set) row(i int) Tuple {
	off := i * s.k
	return Tuple(s.data[off : off+s.k : off+s.k])
}

// Grow reserves capacity for n additional rows, sizing both the value array
// and (if already built) the membership index. It is a hint only.
func (s *Set) Grow(n int) {
	if n <= 0 {
		return
	}
	need := (s.n + n) * s.k
	if cap(s.data) < need {
		grown := make([]int, len(s.data), need)
		copy(grown, s.data)
		s.data = grown
	}
	if s.next != nil && cap(s.next) < s.n+n {
		grownNext := make([]int32, len(s.next), s.n+n)
		copy(grownNext, s.next)
		s.next = grownNext
	}
}

// ensureIndex materializes the membership index. It writes only when the
// index is unbuilt, which a Set filled through Add never is.
func (s *Set) ensureIndex() {
	if s.index != nil {
		return
	}
	s.index = make(map[uint64]int32, s.n)
	s.next = make([]int32, 0, s.n)
	for i := 0; i < s.n; i++ {
		h := hashVals(s.row(i))
		prev, ok := s.index[h]
		if !ok {
			prev = -1
		}
		s.next = append(s.next, prev)
		s.index[h] = int32(i)
	}
}

// lookup returns the id of the row equal to vals, or -1. The index must be
// built.
func (s *Set) lookup(vals []int, h uint64) int32 {
	id, ok := s.index[h]
	if !ok {
		return -1
	}
	for id >= 0 {
		base := int(id) * s.k
		eq := true
		for c, v := range vals {
			if s.data[base+c] != v {
				eq = false
				break
			}
		}
		if eq {
			return id
		}
		id = s.next[id]
	}
	return -1
}

// appendIndexed appends a row known to be absent and records it in the
// (built) index.
func (s *Set) appendIndexed(vals []int, h uint64) {
	s.data = append(s.data, vals...)
	prev, ok := s.index[h]
	if !ok {
		prev = -1
	}
	s.next = append(s.next, prev)
	s.index[h] = int32(s.n)
	s.n++
}

// appendUnique appends a row that the caller guarantees is distinct from all
// stored rows (set-semantics preserved by construction). Only legal while
// the index is unbuilt.
func (s *Set) appendUnique(vals []int) {
	s.data = append(s.data, vals...)
	s.n++
}

// insert adds vals unless already present, building the index first, and
// reports whether it was new.
func (s *Set) insert(vals []int) bool {
	s.ensureIndex()
	h := hashVals(vals)
	if s.lookup(vals, h) >= 0 {
		return false
	}
	s.appendIndexed(vals, h)
	return true
}

// syncViews brings the row views up to date with the arena. When an append
// has moved the arena, every view is re-pointed at the new array, so the set
// never retains an old one; appends grow the arena geometrically, so this is
// amortised O(1) per row.
func (s *Set) syncViews() {
	if len(s.views) > 0 && s.k > 0 && &s.views[0][0] != &s.data[0] {
		s.views = s.views[:0]
	}
	for i := len(s.views); i < s.n; i++ {
		s.views = append(s.views, s.row(i))
	}
}

// Add inserts a copy of row and reports whether it was new; duplicates are
// ignored. It panics on an arity mismatch, which is a programming error.
func (s *Set) Add(row []int) bool {
	if len(row) != s.k {
		panic(fmt.Sprintf("relation: row arity %d for set arity %d", len(row), s.k))
	}
	if s.index == nil && s.n == 0 && s.k > 0 {
		// First row: size the index and the views for the rows Grow reserved.
		rows := cap(s.data) / s.k
		s.index = make(map[uint64]int32, rows)
		s.next = make([]int32, 0, rows)
		s.views = make([][]int, 0, rows)
	}
	if !s.insert(row) {
		return false
	}
	s.syncViews()
	return true
}

// Contains reports whether row is in the set. On a set filled through Add it
// only reads; on an operator result of this package the first call builds
// the index.
func (s *Set) Contains(row []int) bool { return s.Index(row) >= 0 }

// Index returns the insertion-order position of row in the set (its index
// in Tuples), or -1 when row is absent. It reads like Contains.
func (s *Set) Index(row []int) int {
	if len(row) != s.k || s.n == 0 {
		return -1
	}
	s.ensureIndex()
	return int(s.lookup(row, hashVals(row)))
}

// Tuples returns the rows, in insertion order, as views into the arena. The
// returned slice and its rows must not be modified.
func (s *Set) Tuples() [][]int {
	if len(s.views) != s.n {
		s.syncViews() // rows appended by this package's unindexed operators
	}
	return s.views
}

// Clone returns a deep copy with its index and row views built, so the copy
// is read-safe like a set filled through Add.
func (s *Set) Clone() Set {
	c := Set{k: s.k, n: s.n, data: append([]int(nil), s.data[:s.n*s.k]...)}
	c.views = make([][]int, 0, s.n)
	c.ensureIndex()
	c.syncViews()
	return c
}
