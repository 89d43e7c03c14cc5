package csp

import (
	"fmt"
	"math/rand"
	"reflect"
	"sync"
	"testing"

	"csdb/internal/relation"
	"csdb/internal/structure"
)

// TestTupleStoresAgreeWithOracle fills a Table, a structure Interp and a
// Relation — three fronts on relation.Set — with the same random rows
// (duplicates included, enough to move the arena several times) and checks
// each against a map oracle on Len, Has, insertion-order Tuples and Clone.
func TestTupleStoresAgreeWithOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	for trial := 0; trial < 40; trial++ {
		arity, dom := 1+rng.Intn(4), 2+rng.Intn(5)
		rows := make([][]int, rng.Intn(400))
		for i := range rows {
			rows[i] = make([]int, arity)
			for c := range rows[i] {
				rows[i][c] = rng.Intn(dom)
			}
		}

		oracle := map[string]bool{}
		var distinct [][]int
		tab := NewTable(arity)
		voc := structure.MustVocabulary(structure.Symbol{Name: "R", Arity: arity})
		st := structure.MustNew(voc, dom)
		attrs := make([]string, arity)
		for c := range attrs {
			attrs[c] = fmt.Sprintf("a%d", c)
		}
		rel := relation.MustNew(attrs...)
		for _, row := range rows {
			if k := fmt.Sprint(row); !oracle[k] {
				oracle[k] = true
				distinct = append(distinct, row)
			}
			tab.Add(row)
			st.MustAddTuple("R", row...)
			rel.MustAdd(row)
		}

		tabClone, stClone, relClone := tab.Clone(), st.Clone(), rel.Clone()
		stores := []struct {
			name string
			len  func() int
			has  func([]int) bool
			rows func() [][]int
		}{
			{"Table", tab.Len, tab.Has, tab.Tuples},
			{"Table.Clone", tabClone.Len, tabClone.Has, tabClone.Tuples},
			{"Interp", st.Rel("R").Len, st.Rel("R").Has, st.Rel("R").Tuples},
			{"Interp.Clone", stClone.Rel("R").Len, stClone.Rel("R").Has, stClone.Rel("R").Tuples},
			{"Relation", rel.Len, rel.Contains, nil},
			{"Relation.Clone", relClone.Len, relClone.Contains, nil},
		}
		probe := make([]int, arity)
		for _, s := range stores {
			if s.len() != len(oracle) {
				t.Fatalf("trial %d %s: Len %d, oracle %d", trial, s.name, s.len(), len(oracle))
			}
			for _, row := range distinct {
				if !s.has(row) {
					t.Fatalf("trial %d %s: missing %v", trial, s.name, row)
				}
			}
			for i := 0; i < 50; i++ {
				for c := range probe {
					probe[c] = rng.Intn(dom + 1)
				}
				if s.has(probe) != oracle[fmt.Sprint(probe)] {
					t.Fatalf("trial %d %s: Has(%v) = %v", trial, s.name, probe, s.has(probe))
				}
			}
			if s.rows != nil && len(distinct) > 0 && !reflect.DeepEqual(s.rows(), distinct) {
				t.Fatalf("trial %d %s: Tuples out of insertion order", trial, s.name)
			}
		}

		// A clone is independent of its source.
		extra := make([]int, arity)
		for c := range extra {
			extra[c] = dom // outside every drawn row
		}
		tabClone.Add(extra)
		if tab.Has(extra) || tab.Len() != len(oracle) || !tabClone.Has(extra) {
			t.Fatalf("trial %d: Table.Clone shares storage with its source", trial)
		}
	}
}

// TestTableConcurrentReaders reads one built Table, and a clone of it, from
// several goroutines at once, as the portfolio's lanes do; under -race any
// write made by a read (a lazy index or view build) is reported. Nothing
// reads either table before the goroutines start.
func TestTableConcurrentReaders(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	tab, ref := NewTable(3), NewTable(3)
	for i := 0; i < 2000; i++ {
		row := []int{rng.Intn(12), rng.Intn(12), rng.Intn(12)}
		tab.Add(row)
		ref.Add(row)
	}
	want, wantLen := ref.Key(), ref.Len()
	clone := tab.Clone()
	var wg sync.WaitGroup
	for lane := 0; lane < 6; lane++ {
		shared := tab
		if lane%2 == 1 {
			shared = clone
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			if shared.Len() != wantLen || len(shared.Tuples()) != wantLen {
				t.Errorf("Len %d, %d tuples; want %d", shared.Len(), len(shared.Tuples()), wantLen)
			}
			for _, row := range shared.Tuples() {
				if !shared.Has(row) {
					t.Errorf("row %v not found", row)
					return
				}
			}
			if shared.Has([]int{12, 0, 0}) {
				t.Error("absent row found")
			}
			if shared.Clone().Key() != want || shared.Key() != want {
				t.Error("contents differ from the reference table")
			}
		}()
	}
	wg.Wait()
}
