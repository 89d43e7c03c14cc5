package cspio

import (
	"hash/fnv"
	"sort"
	"strconv"

	"csdb/internal/csp"
)

// Canonical instance encoding: a byte string that identifies a CSP instance
// up to the orderings that do not change its meaning, so that syntactically
// different but semantically identical submissions hash to the same cache
// key. Two instances get the same encoding when they differ only in
//
//   - the order constraints are listed,
//   - the order of tuples within a constraint's table,
//   - the column order of a constraint's scope (tuples are permuted along
//     with the scope),
//   - the order (and multiplicity) of values in a dom_of restriction,
//   - duplicate constraints, and
//   - variable labels (names are presentation, not semantics).
//
// The encoding is conservative: it never identifies two instances with
// different solution sets, but it does not try to detect deeper equivalences
// (variable renamings, symmetric tables under duplicate scope variables).

// Canonical returns the canonical byte encoding of p.
func Canonical(p *csp.Instance) []byte {
	out := make([]byte, 0, 256)
	out = appendNum(out, p.Vars)
	out = appendNum(out, p.Dom)

	// Per-variable domain restrictions, in variable-index order with values
	// sorted and deduplicated. A nil entry (full domain) is skipped, so an
	// instance with no Domains slice matches one with all-nil entries.
	if p.Domains != nil {
		for v := 0; v < len(p.Domains); v++ {
			d := p.Domains[v]
			if d == nil {
				continue
			}
			vals := append([]int(nil), d...)
			sort.Ints(vals)
			vals = dedupSortedInts(vals)
			out = append(out, 'D')
			out = appendNum(out, v)
			for _, val := range vals {
				out = appendNum(out, val)
			}
			out = append(out, ';')
		}
	}

	// Constraints: canonicalize each one independently, then sort the
	// encodings and drop exact duplicates (a repeated constraint is a no-op).
	encs := make([]string, 0, len(p.Constraints))
	for _, c := range p.Constraints {
		encs = append(encs, string(canonicalConstraint(c)))
	}
	sort.Strings(encs)
	prev := ""
	for i, e := range encs {
		if i > 0 && e == prev {
			continue
		}
		prev = e
		out = append(out, e...)
	}
	return out
}

// CanonicalHash returns the 64-bit FNV-1a hash of Canonical(p).
func CanonicalHash(p *csp.Instance) uint64 {
	h := fnv.New64a()
	_, _ = h.Write(Canonical(p))
	return h.Sum64()
}

// canonicalConstraint encodes one constraint with its scope columns in
// ascending variable order (a stable sort, so duplicate scope variables keep
// their relative column order) and its tuples permuted accordingly, sorted,
// and deduplicated.
func canonicalConstraint(c *csp.Constraint) []byte {
	k := len(c.Scope)
	perm := make([]int, k)
	for i := range perm {
		perm[i] = i
	}
	sort.SliceStable(perm, func(a, b int) bool { return c.Scope[perm[a]] < c.Scope[perm[b]] })

	rows := make([]string, 0, c.Table.Len())
	var buf []byte
	for _, row := range c.Table.Tuples() {
		buf = buf[:0]
		for _, col := range perm {
			buf = appendNum(buf, row[col])
		}
		rows = append(rows, string(buf))
	}
	sort.Strings(rows)

	enc := make([]byte, 0, 16+8*len(rows))
	enc = append(enc, 'C')
	for _, col := range perm {
		enc = appendNum(enc, c.Scope[col])
	}
	enc = append(enc, ':')
	prev := ""
	for i, r := range rows {
		if i > 0 && r == prev {
			continue
		}
		prev = r
		enc = append(enc, r...)
		enc = append(enc, '|')
	}
	enc = append(enc, ';')
	return enc
}

func appendNum(b []byte, v int) []byte {
	b = strconv.AppendInt(b, int64(v), 10)
	return append(b, ' ')
}

func dedupSortedInts(s []int) []int {
	out := s[:0]
	for i, v := range s {
		if i > 0 && v == s[i-1] {
			continue
		}
		out = append(out, v)
	}
	return out
}
