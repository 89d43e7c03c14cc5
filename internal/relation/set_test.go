package relation

import "testing"

// TestSetViewsFollowArena checks that Add keeps every row view pointing
// into the current arena: after each reallocation the views are re-pointed,
// so the set never holds on to an old array.
func TestSetViewsFollowArena(t *testing.T) {
	s := MakeSet(2)
	moves := 0
	for i := 0; i < 300; i++ {
		before := cap(s.data)
		if !s.Add([]int{i, i % 7}) {
			t.Fatalf("row %d reported as duplicate", i)
		}
		if cap(s.data) != before {
			moves++
		}
		if s.Add([]int{i, i % 7}) {
			t.Fatalf("duplicate of row %d reported as new", i)
		}
		views := s.Tuples()
		if len(views) != s.Len() {
			t.Fatalf("%d views for %d rows", len(views), s.Len())
		}
		for j, v := range views {
			if &v[0] != &s.data[j*2] || v[0] != j || v[1] != j%7 {
				t.Fatalf("after %d adds, view %d = %v is not row %d of the arena", i+1, j, v, j)
			}
		}
	}
	if moves < 3 {
		t.Fatalf("arena moved %d times; the test needs several moves", moves)
	}
}

// TestSetGrowThenAdd checks that a Grow hint before the first Add is used
// for the arena and index, and that the set stays correct past the hint.
func TestSetGrowThenAdd(t *testing.T) {
	s := MakeSet(3)
	s.Grow(10)
	for i := 0; i < 25; i++ {
		s.Add([]int{i, i, i})
	}
	if s.Len() != 25 || !s.Contains([]int{24, 24, 24}) || s.Contains([]int{25, 25, 25}) {
		t.Fatalf("Len %d after 25 distinct adds", s.Len())
	}
	if c := s.Clone(); c.Len() != 25 || !c.Contains([]int{0, 0, 0}) || len(c.Tuples()) != 25 {
		t.Fatal("clone lost rows")
	}
}
