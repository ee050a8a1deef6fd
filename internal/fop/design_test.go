package fop

import (
	"testing"

	"github.com/flex-eda/flex/internal/gen"
	"github.com/flex-eda/flex/internal/geom"
	"github.com/flex-eda/flex/internal/region"
)

// designRegion is one localRegion cut from a generated design, with the
// target it was cut for.
type designRegion struct {
	reg *region.Region
	tg  Target
}

// designRegions cuts first-window localRegions from a generated design:
// the wide, dense, sparsely bridged shapes the legalizer feeds Best, which
// randomRegion's narrow windows do not reach. The design's hidden legal
// packing stands in for a placed layout and its global placement gives
// each target's preferred position. Every 7th cell, when movable, is a
// target, its window sized and centred as internal/mgl's unexpanded window
// and cut by region.ExtractFrom from an Index query. Two placement states
// are cut per target: all other cells placed, and only the even-ID and
// fixed ones (a half-legalized neighbourhood).
func designRegions(tb testing.TB, name string, scale float64) []designRegion {
	tb.Helper()
	spec, ok := gen.ByName(name)
	if !ok {
		tb.Fatalf("unknown design %q", name)
	}
	l, err := spec.GenerateLegal(scale)
	if err != nil {
		tb.Fatal(err)
	}
	gp, err := spec.Generate(scale)
	if err != nil {
		tb.Fatal(err)
	}
	for i := range l.Cells {
		l.Cells[i].GX, l.Cells[i].GY = gp.Cells[i].GX, gp.Cells[i].GY
	}
	idx := region.NewIndex(l, 32, 4, nil)
	all := make([]bool, len(l.Cells))
	even := make([]bool, len(l.Cells))
	for i := range all {
		all[i] = true
		even[i] = i%2 == 0 || l.Cells[i].Fixed
	}
	var out []designRegion
	var cands []int
	for id := 0; id < len(l.Cells); id += 7 {
		c := &l.Cells[id]
		if c.Fixed {
			continue
		}
		w, h := max(8*c.W, 64), max(4*c.H, 6)
		win := geom.NewRect(c.GX+c.W/2-w/2, c.GY+c.H/2-h/2, w, h)
		tg := Target{GX: c.GX, GY: c.GY, W: c.W, H: c.H, ParityOK: c.Parity.AllowsRow, RowHeight: l.RowHeight}
		cands = idx.Query(win, cands[:0])
		for _, placed := range [][]bool{all, even} {
			out = append(out, designRegion{region.ExtractFrom(l, placed, id, win, cands), tg})
		}
	}
	return out
}

// oracleDesigns are the real-shape oracle's inputs: the densest
// single-height-heavy design and the design with the largest share of
// 4-row cells, at scales whose regions carry tens of cells.
var oracleDesigns = []struct {
	name  string
	scale float64
}{
	{"des_perf_1", 0.02},
	{"pci_b_a_md2", 0.065},
}

// TestBestMatchesReferenceOnDesigns is the differential oracle on real
// region shapes: Candidate and the whole Stats equal the reference kernel
// under every option combination.
func TestBestMatchesReferenceOnDesigns(t *testing.T) {
	for _, d := range oracleDesigns {
		t.Run(d.name, func(t *testing.T) {
			regs := designRegions(t, d.name, d.scale)
			multiRow := 0
			for _, dr := range regs {
				for _, c := range dr.reg.Cells {
					if c.H > 1 {
						multiRow++
					}
				}
				for _, opt := range allOptions {
					checkAgainstReference(t, dr.reg, dr.tg, opt)
				}
			}
			if len(regs) < 100 || multiRow == 0 {
				t.Fatalf("%d regions with %d multi-row cells: the oracle lost its inputs", len(regs), multiRow)
			}
		})
	}
}

// TestBestReachesThroughOutsideBridge: the target may occupy row 0 only,
// whose segment starts at x=2. A 2-row cell A joins rows 0-1, and a 3-row
// cell B wholly outside the target's rows is the only bridge from row 1 to
// row 3, where cell C sits 1 site from its segment's end. Every slot left
// of A pushes A, B and C right by the same amount, which C's segment caps
// at x=1, below the row's start. So the best placement is on A's right:
// x=5, pushing A left by 2, for cost 5. A reach that stopped at the
// target's rows, or at the rows of the cells in them, would miss C and
// pick x=2 left of A for cost 4, a shift that cannot be committed.
func TestBestReachesThroughOutsideBridge(t *testing.T) {
	win := geom.NewRect(0, 0, 30, 4)
	reg := buildRegion(win, [2]int{0, 30}, []region.LocalCell{
		{ID: 0, X: 4, Y: 0, GX: 4, W: 3, H: 2},   // A: rows 0-1
		{ID: 1, X: 7, Y: 1, GX: 7, W: 3, H: 3},   // B: rows 1-3
		{ID: 2, X: 10, Y: 3, GX: 10, W: 3, H: 1}, // C: row 3
	})
	reg.Segments[0].Lo = 2
	reg.Segments[3].Hi = 14
	tg := Target{GX: 2, GY: 0, W: 4, H: 1, ParityOK: func(y int) bool { return y == 0 }, RowHeight: 1}
	for _, opt := range allOptions {
		checkAgainstReference(t, reg, tg, opt)
	}
	want := Candidate{X: 5, Y: 0, Boundary2: 11, Cost: 5, Feasible: true}
	if c := Best(reg.Clone(), tg, Options{}, nil); c != want {
		t.Fatalf("best %+v, want %+v", c, want)
	}
}

// BenchmarkBestDesign times Best over the real-shape oracle's regions, in
// the streamed configuration the engine runs: one op is one pass over all
// of them.
func BenchmarkBestDesign(b *testing.B) {
	var regs []designRegion
	for _, d := range oracleDesigns {
		regs = append(regs, designRegions(b, d.name, d.scale)...)
	}
	var st Stats
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, dr := range regs {
			Best(dr.reg, dr.tg, Options{Streamed: true}, &st)
		}
	}
}
