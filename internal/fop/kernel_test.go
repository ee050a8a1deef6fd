package fop

import (
	"math/rand"
	"sync"
	"testing"

	"github.com/flex-eda/flex/internal/geom"
	"github.com/flex-eda/flex/internal/region"
)

// randomRegion builds a seeded, internally consistent localRegion that
// exercises every table-building edge: per-row segments of varying span,
// blocked (zero-length) rows, multi-row cells up to 4 rows tall, and cells
// overhanging the window's top or bottom edge (their in-window rows sit in
// segments; their outside rows belong to no segment). The target varies in
// size, preferred position, row-parity filter and vertical weight.
func randomRegion(rng *rand.Rand) (*region.Region, Target) {
	win := geom.NewRect(rng.Intn(11)-5, rng.Intn(7)-3, 12+rng.Intn(49), 1+rng.Intn(8))
	reg := &region.Region{Window: win, Segments: make([]region.Segment, win.H)}
	for i := range reg.Segments {
		seg := region.Segment{Row: win.Y + i, Lo: win.X, Hi: win.X}
		if rng.Intn(6) > 0 {
			seg.Lo = win.X + rng.Intn(4)
			seg.Hi = win.X + win.W - rng.Intn(4)
		}
		reg.Segments[i] = seg
	}
	// Pack cells left to right, one cursor per absolute row, over the
	// window's rows plus one row above and below it.
	cursor := make(map[int]int)
	for k, n := 0, rng.Intn(40); k < n; k++ {
		y := win.Y - 1 + rng.Intn(win.H+2)
		h := 1 + rng.Intn(4)
		w := 1 + rng.Intn(8)
		x := win.X + rng.Intn(3)
		for row := y; row < y+h; row++ {
			x = max(x, cursor[row])
		}
		x += rng.Intn(3)
		fits := y < win.Y+win.H && y+h > win.Y
		for row := y; row < y+h && fits; row++ {
			if seg := reg.SegmentAt(row); seg != nil && (seg.Len() == 0 || x < seg.Lo || x+w > seg.Hi) {
				fits = false
			}
		}
		if !fits {
			continue
		}
		reg.Cells = append(reg.Cells, region.LocalCell{
			ID: len(reg.Cells), X: x, Y: y, GX: x + rng.Intn(13) - 6, W: w, H: h,
		})
		for row := y; row < y+h; row++ {
			cursor[row] = x + w
		}
	}
	for li := range reg.Cells {
		c := &reg.Cells[li]
		for row := c.Y; row < c.Y+c.H; row++ {
			if seg := reg.SegmentAt(row); seg != nil {
				seg.Cells = append(seg.Cells, li)
			}
		}
	}
	reg.SortSegmentCells()

	t := Target{
		GX: win.X + rng.Intn(win.W+10) - 5, GY: win.Y + rng.Intn(win.H+4) - 2,
		W: 1 + rng.Intn(6), H: 1 + rng.Intn(4), RowHeight: 1 + rng.Intn(8),
	}
	switch rng.Intn(4) {
	case 1:
		t.ParityOK = anyRow
	case 2:
		t.ParityOK = func(y int) bool { return y%2 == 0 }
	case 3:
		t.ParityOK = func(y int) bool { return y%2 != 0 }
	}
	return reg, t
}

// checkAgainstReference runs the production and reference kernels on
// private clones of reg and fails unless Candidate and the whole Stats
// agree and neither kernel moved a cell.
func checkAgainstReference(t *testing.T, reg *region.Region, tg Target, opt Options) {
	t.Helper()
	a, b := reg.Clone(), reg.Clone()
	var got, want Stats
	gc := Best(a, tg, opt, &got)
	wc := refBest(b, tg, opt, &want)
	if gc != wc {
		t.Fatalf("opt %+v: candidate %+v, reference %+v", opt, gc, wc)
	}
	if got != want {
		t.Fatalf("opt %+v: stats\n%+v\nreference\n%+v", opt, got, want)
	}
	for i := range reg.Cells {
		if a.Cells[i].X != reg.Cells[i].X {
			t.Fatalf("opt %+v: Best moved cell %d", opt, i)
		}
	}
}

var allOptions = []Options{
	{}, {Streamed: true}, {MeasureOriginalShift: true}, {Streamed: true, MeasureOriginalShift: true},
}

// TestBestMatchesReference is the deterministic half of the differential
// oracle: seeded random regions under every option combination.
func TestBestMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(1313))
	for iter := 0; iter < 400; iter++ {
		reg, tg := randomRegion(rng)
		for _, opt := range allOptions {
			checkAgainstReference(t, reg, tg, opt)
		}
	}
	reg, tg := benchRegion(8, 200)
	for _, opt := range allOptions {
		checkAgainstReference(t, reg, tg, opt)
	}
}

// FuzzBest explores the region generator's seed space with both option
// axes.
func FuzzBest(f *testing.F) {
	f.Add(int64(1), false, false)
	f.Add(int64(2), true, false)
	f.Add(int64(3), false, true)
	f.Add(int64(4), true, true)
	f.Fuzz(func(t *testing.T, seed int64, streamed, measure bool) {
		reg, tg := randomRegion(rand.New(rand.NewSource(seed)))
		checkAgainstReference(t, reg, tg, Options{Streamed: streamed, MeasureOriginalShift: measure})
	})
}

// TestBestAllocationFree: with the scratch pooled, a warmed Best allocates
// nothing.
func TestBestAllocationFree(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's sync.Pool drops items at random")
	}
	reg, tg := benchRegion(8, 200)
	var st Stats
	Best(reg, tg, Options{Streamed: true}, &st)
	if n := testing.AllocsPerRun(20, func() { Best(reg, tg, Options{Streamed: true}, &st) }); n != 0 {
		t.Fatalf("Best allocates %.1f times per call, want 0", n)
	}
}

// TestBestConcurrent guards the pooled scratch: goroutines running Best on
// distinct regions at once (as the batched engine's frozen evaluations do)
// get exactly the serial results on every call.
func TestBestConcurrent(t *testing.T) {
	const n = 8
	rng := rand.New(rand.NewSource(77))
	regs := make([]*region.Region, n)
	tgs := make([]Target, n)
	opts := make([]Options, n)
	want := make([]Candidate, n)
	wantSt := make([]Stats, n)
	for i := range regs {
		regs[i], tgs[i] = randomRegion(rng)
		opts[i] = Options{Streamed: true, MeasureOriginalShift: i%2 == 0}
		want[i] = Best(regs[i], tgs[i], opts[i], &wantSt[i])
	}
	var wg sync.WaitGroup
	for i := range regs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for rep := 0; rep < 50; rep++ {
				var st Stats
				if got := Best(regs[i], tgs[i], opts[i], &st); got != want[i] || st != wantSt[i] {
					t.Errorf("region %d rep %d: concurrent %+v %+v, serial %+v %+v", i, rep, got, st, want[i], wantSt[i])
					return
				}
			}
		}(i)
	}
	wg.Wait()
}
