package treewidth

import (
	"math/big"

	"csdb/internal/csp"
	"csdb/internal/relation"
)

// CountDecomposed counts the solutions of the instance by dynamic
// programming over a tree decomposition of its primal graph — the counting
// extension of Theorem 6.2: #CSP is computable in polynomial time on
// bounded-treewidth instances (whereas it is #P-hard in general). Counts
// are exact big integers, since solution counts grow as d^n.
func CountDecomposed(p *csp.Instance, d *Decomposition) (*big.Int, error) {
	if p.Vars == 0 {
		return big.NewInt(1), nil
	}
	rows, _, err := bagRows(p, d)
	if err != nil {
		return nil, err
	}
	nb := d.NumBags()
	parent, order := d.Rooted(0)
	children := make([][]int, nb)
	inChild, inParent := make([][]int, nb), make([][]int, nb)
	for b, pa := range parent {
		if pa >= 0 {
			children[pa] = append(children[pa], b)
			inChild[b], inParent[b] = csp.SharedColumns(d.Bags[b], d.Bags[pa])
		}
	}

	// Bottom-up, counts[b][r] is the number of ways to extend row r of bag b
	// to the variables below b that b does not hold (nil for none). A child's
	// counts reach its parent summed per projection onto the variables they
	// share: keys[c] indexes the projections, sums[c] is aligned with it.
	counts := make([][]*big.Int, nb)
	keys := make([]relation.Set, nb)
	sums := make([][]*big.Int, nb)
	var key []int
	for _, b := range order {
		counts[b] = make([]*big.Int, len(rows[b]))
	rows:
		for r, row := range rows[b] {
			total := big.NewInt(1)
			for _, c := range children[b] {
				key = project(key, row, inParent[c])
				id := keys[c].Index(key)
				if id < 0 {
					continue rows // no extension below c
				}
				total.Mul(total, sums[c][id])
			}
			counts[b][r] = total
		}
		if parent[b] < 0 {
			continue
		}
		keys[b] = relation.MakeSet(len(inChild[b]))
		for r, row := range rows[b] {
			if counts[b][r] == nil {
				continue
			}
			key = project(key, row, inChild[b])
			if keys[b].Add(key) {
				sums[b] = append(sums[b], new(big.Int))
			}
			acc := sums[b][keys[b].Index(key)]
			acc.Add(acc, counts[b][r])
		}
	}

	total := new(big.Int)
	for _, c := range counts[order[len(order)-1]] {
		if c != nil {
			total.Add(total, c)
		}
	}
	return total, nil
}

// project returns row's values at cols, reusing buf.
func project(buf, row, cols []int) []int {
	buf = buf[:0]
	for _, c := range cols {
		buf = append(buf, row[c])
	}
	return buf
}

// Count computes the exact number of solutions using the best heuristic
// decomposition of the primal graph.
func Count(p *csp.Instance) (*big.Int, error) {
	d := BestHeuristic(PrimalGraph(p))
	return CountDecomposed(p, d)
}
