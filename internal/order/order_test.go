package order

import (
	"math"
	"testing"

	"github.com/flex-eda/flex/internal/gen"
	"github.com/flex-eda/flex/internal/model"
	"github.com/flex-eda/flex/internal/region"
)

func layout(t *testing.T) *model.Layout {
	t.Helper()
	l, err := gen.Small(200, 0.5, 55).Generate(1.0)
	if err != nil {
		t.Fatal(err)
	}
	return l
}

func TestSizeOrderDescending(t *testing.T) {
	l := layout(t)
	s := NewSizeOrder(l)
	prev := 1 << 60
	count := 0
	for {
		id, ok := s.Next()
		if !ok {
			break
		}
		a := l.Cells[id].Area()
		if a > prev {
			t.Fatalf("area increased: %d after %d", a, prev)
		}
		prev = a
		count++
	}
	if count != len(l.MovableIDs()) {
		t.Fatalf("yielded %d targets", count)
	}
}

func TestSlidingWindowReordersByDensity(t *testing.T) {
	l := layout(t)
	// Synthetic density: higher for higher cell IDs.
	density := func(id int) float64 { return float64(id) }
	sw := NewSlidingWindow(l, 6, density)
	plain := NewSizeOrder(l)

	// First target identical (C_cur of the initial window).
	a, _ := sw.Next()
	b, _ := plain.Next()
	if a != b {
		t.Fatalf("first target differs: %d vs %d", a, b)
	}
	// Second target is the fixed C_next: also identical.
	a, _ = sw.Next()
	b, _ = plain.Next()
	if a != b {
		t.Fatalf("second target (C_next) differs: %d vs %d", a, b)
	}
	// From here on the window tail is density-sorted, so the sliding
	// window must eventually diverge from the plain order.
	diverged := false
	for i := 0; i < 40; i++ {
		x, ok1 := sw.Next()
		y, ok2 := plain.Next()
		if !ok1 || !ok2 {
			break
		}
		if x != y {
			diverged = true
			break
		}
	}
	if !diverged {
		t.Fatal("sliding window never reordered anything")
	}
}

func TestSlidingWindowYieldsAllTargets(t *testing.T) {
	l := layout(t)
	sw := NewSlidingWindow(l, 8, func(int) float64 { return 0 })
	seen := map[int]bool{}
	for {
		id, ok := sw.Next()
		if !ok {
			break
		}
		if seen[id] {
			t.Fatalf("target %d yielded twice", id)
		}
		seen[id] = true
	}
	if len(seen) != len(l.MovableIDs()) {
		t.Fatalf("yielded %d of %d targets", len(seen), len(l.MovableIDs()))
	}
}

func TestDensityEstimator(t *testing.T) {
	l := layout(t)
	idx := region.NewIndex(l, 32, 4, nil)
	est := DensityEstimator(l, idx, 64, 8)
	ids := l.MovableIDs()
	for _, id := range ids[:10] {
		d := est(id)
		if d <= 0 || d > 4 {
			t.Fatalf("density estimate %v out of range for cell %d", d, id)
		}
	}
}

// TestDensityMemoExact drives an index through every kind of change the
// legalizer makes — adding a placed cell, moving an indexed cell within
// its bins and across bins, removing one — and after each step requires
// the memoized estimator to return, for every cell, the bit-identical
// float64 a fresh (empty-memo) estimator computes. Each step must also
// change some estimate, so a stale memo cannot pass unnoticed.
func TestDensityMemoExact(t *testing.T) {
	l := layout(t)
	idx := region.NewIndex(l, 32, 4, func(i int) bool { return l.Cells[i].Fixed })
	est := DensityEstimator(l, idx, 96, 12)
	prev := make([]float64, len(l.Cells))
	check := func(step string) {
		t.Helper()
		fresh := DensityEstimator(l, idx, 96, 12)
		changed := false
		for id := range l.Cells {
			got, want := est(id), fresh(id)
			if math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("%s: cell %d: memoized %v, fresh %v", step, id, got, want)
			}
			changed = changed || got != prev[id]
			prev[id] = got
		}
		if !changed {
			t.Fatalf("%s: no estimate changed", step)
		}
	}
	check("fixed cells only")

	movable := l.MovableIDs()
	for _, id := range movable[:len(movable)/2] {
		idx.Add(id)
	}
	check("add placed cells")

	// A one-site move that keeps the cell inside the same bins.
	moved := false
	for _, id := range movable[:len(movable)/2] {
		c := &l.Cells[id]
		if c.X%32 > 0 && (c.X+c.W-1)%32 > 0 {
			c.X--
			idx.Update(id)
			moved = true
			break
		}
	}
	if !moved {
		t.Fatal("no cell can move within its bins")
	}
	check("move within bins")

	for _, id := range movable[len(movable)/2-5 : len(movable)/2] {
		c := &l.Cells[id]
		c.X = (c.X + 40) % (l.NumSitesX - c.W)
		c.Y = (c.Y + 5) % (l.NumRows - c.H)
		idx.Update(id)
	}
	check("move across bins")

	for _, id := range movable[:len(movable)/4] {
		idx.Remove(id)
	}
	check("remove")
}
