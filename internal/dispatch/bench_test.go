package dispatch

import (
	"math/rand"
	"testing"

	"csdb/internal/csp"
	"csdb/internal/cspio"
	"csdb/internal/gen"
)

// planted rebuilds p's constraints on the same scopes with fresh tables over
// d values: each tuple is kept with probability keep, and the tuple of one
// random assignment always is, so the instance is satisfiable.
func planted(rng *rand.Rand, p *csp.Instance, d int, keep float64) *csp.Instance {
	sigma := make([]int, p.Vars)
	for v := range sigma {
		sigma[v] = rng.Intn(d)
	}
	out := csp.NewInstance(p.Vars, d)
	for _, con := range p.Constraints {
		k := len(con.Scope)
		tab := csp.NewTable(k)
		row := make([]int, k)
		for code := 0; ; code++ {
			c, hit := code, true
			for j := k - 1; j >= 0; j-- {
				row[j] = c % d
				c /= d
				hit = hit && row[j] == sigma[con.Scope[j]]
			}
			if c > 0 {
				break
			}
			if hit || rng.Float64() < keep {
				tab.Add(row)
			}
		}
		out.MustAddConstraint(con.Scope, tab)
	}
	return out
}

// routeInstances are one satisfiable instance per PTIME route, shaped like
// cspd's tractable traffic: a random tree over 4 values, an ear-grown
// α-acyclic instance of arity up to 3 over 3 values, and a full 3-tree over
// 3 values (primal width exactly 3).
func routeInstances() []struct {
	class Class
	p     *csp.Instance
} {
	rng := rand.New(rand.NewSource(1))
	tree := planted(rng, gen.CSPOnGraph(rng, gen.RandomTree(rng, 450), 4, 0), 4, 0.6)
	acyclic := planted(rng, gen.AcyclicCSP(rng, 450, 3, 3, 0), 3, 0.55)
	g, _ := gen.PartialKTree(rng, 125, 3, 0)
	width := planted(rng, gen.CSPOnGraph(rng, g, 3, 0), 3, 0.6)
	return []struct {
		class Class
		p     *csp.Instance
	}{{Tree, tree}, {Acyclic, acyclic}, {BoundedWidth, width}}
}

// BenchmarkRouteSolve times each PTIME route's solver alone: the
// classification (and its witness) is computed once outside the loop, so
// the numbers are the reducer plus its adapter.
func BenchmarkRouteSolve(b *testing.B) {
	an := NewAnalyzer(0, 0)
	for _, in := range routeInstances() {
		cls, _ := an.Classify(in.p)
		if cls.Class != in.class {
			b.Fatalf("instance for %v classified %v", in.class, cls.Class)
		}
		var size countWriter
		if err := cspio.Format(&size, in.p); err != nil {
			b.Fatal(err)
		}
		b.Run(in.class.label(), func(b *testing.B) {
			b.SetBytes(int64(size))
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				res, err := an.solveClass(in.p, cls)
				if err != nil || !res.Found {
					b.Fatalf("found=%v err=%v", res.Found, err)
				}
			}
		})
	}
}

// countWriter counts the bytes written to it.
type countWriter int

func (w *countWriter) Write(b []byte) (int, error) {
	*w += countWriter(len(b))
	return len(b), nil
}
