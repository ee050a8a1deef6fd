package fop

// The pre-table FOP kernel, kept verbatim as a differential oracle: every
// identifier carries a ref prefix, otherwise the sweeps, hinge emission and
// statistics are exactly those the table-driven kernel replaced. FuzzBest
// and TestBestMatchesReference hold the production Best to it, Candidate
// and Stats alike. The curve stage is shared; TestSortMatchesComparisonSort
// in internal/curve holds it to a comparison sort.

import (
	"github.com/flex-eda/flex/internal/curve"
	"github.com/flex-eda/flex/internal/geom"
	"github.com/flex-eda/flex/internal/region"
	"github.com/flex-eda/flex/internal/shift"
)

// refChainEntry records one cell swept into a shift chain and its offset.
type refChainEntry struct {
	ci int
	o  int
}

// refScratch is the reference kernel's per-call working memory.
type refScratch struct {
	order   []int
	rowOff  []int
	left    []refChainEntry
	right   []refChainEntry
	inLeft  []bool // cell index -> claimed by the left chain
	bps     []curve.Breakpoint
	eval    curve.Evaluator
	centers []int
	bounds  []int
	saved   []int
}

// refBest is the pre-table Best.
func refBest(reg *region.Region, t Target, opt Options, st *Stats) Candidate {
	if st == nil {
		st = &Stats{}
	}
	best := Candidate{Feasible: false}
	win := reg.Window
	var sc refScratch

	// Ahead sort: one x-sort of the region's cells shared by every
	// insertion point, mirroring the hardware's single per-region sorter.
	order := sc.refXOrder(reg)
	st.Shift.SortedCells += len(order)
	if n := len(order); n > 1 {
		logn := 0
		for v := n; v > 1; v >>= 1 {
			logn++
		}
		st.Shift.SortOps += n * logn
	}
	sc.rowOff = make([]int, len(reg.Segments))
	sc.inLeft = make([]bool, len(reg.Cells))

	for y := win.Y; y+t.H <= win.Y+win.H; y++ {
		if t.ParityOK != nil && !t.ParityOK(y) {
			continue
		}
		// Target must fit the intersection of its rows' segments.
		lo0, hi0 := negInf, 1<<50
		ok := true
		for row := y; row < y+t.H; row++ {
			seg := reg.SegmentAt(row)
			if seg == nil || seg.Len() < t.W {
				ok = false
				break
			}
			lo0 = geom.Max(lo0, seg.Lo)
			hi0 = geom.Min(hi0, seg.Hi-t.W)
		}
		if !ok || lo0 > hi0 {
			continue
		}
		st.CandidateRows++
		vbase := t.RowHeight * geom.Abs(y-t.GY)

		for _, b2 := range sc.refSlotBoundaries(reg, y, t.H) {
			st.InsertionPoints++
			c := sc.refEvalPoint(reg, order, t, y, b2, lo0, hi0, vbase, opt, st)
			if c.Better(best) {
				best = c
			}
		}
	}
	return best
}

// refSlotBoundaries returns the doubled-x boundary values that induce every
// distinct left/right partition of the cells in rows [y, y+h): one below
// the smallest doubled center, then one at each distinct doubled center.
// The returned slice is scratch memory, valid until the next call.
func (sc *refScratch) refSlotBoundaries(reg *region.Region, y, h int) []int {
	// A cell spanning several rows contributes the same doubled center to
	// each, so gathering per-row (with duplicates) and deduplicating after
	// the sort yields exactly the distinct-cell center set.
	centers := sc.centers[:0]
	for row := y; row < y+h; row++ {
		seg := reg.SegmentAt(row)
		if seg == nil {
			continue
		}
		for _, ci := range seg.Cells {
			c := &reg.Cells[ci]
			centers = append(centers, 2*c.X+c.W)
		}
	}
	sc.centers = centers
	if len(centers) == 0 {
		sc.bounds = append(sc.bounds[:0], 0)
		return sc.bounds // single empty partition; boundary value irrelevant
	}
	refSortInts(centers)
	out := append(sc.bounds[:0], centers[0]-1)
	for i, v := range centers {
		if i > 0 && centers[i-1] == v {
			continue
		}
		out = append(out, v)
	}
	sc.bounds = out
	return out
}

// refEvalPoint scores one insertion point: chain offsets (cell shifting in
// sort-ahead form), hinge emission, and curve evaluation.
func (sc *refScratch) refEvalPoint(reg *region.Region, order []int, t Target, y, b2, lo0, hi0, vbase int, opt Options, st *Stats) Candidate {
	st.Shift.Passes += 2 // one outward sweep per phase

	nSeg := len(reg.Segments)
	rowOff := sc.rowOff

	// Left sweep: descending x over left/none cells. A cell is in the
	// target's rows when c.Y < y+t.H && c.Y+c.H > y; among those, the
	// boundary b2 splits left (2x+w ≤ b2) from right.
	for i := range rowOff {
		rowOff[i] = negInf
	}
	for row := y; row < y+t.H; row++ {
		if si := row - reg.Window.Y; si >= 0 && si < nSeg {
			rowOff[si] = 0
		}
	}
	lo, hi := lo0, hi0
	left := sc.left[:0]
	for k := len(order) - 1; k >= 0; k-- {
		ci := order[k]
		c := &reg.Cells[ci]
		if c.Y < y+t.H && c.Y+c.H > y && 2*c.X+c.W > b2 {
			continue // right-partition cell
		}
		o := negInf
		for row := c.Y; row < c.Y+c.H; row++ {
			si := row - reg.Window.Y
			if si >= 0 && si < nSeg && rowOff[si] > o {
				o = rowOff[si]
			}
		}
		st.Shift.SubcellVisits += c.H
		st.ChainCells++
		st.ChainVisitsByH[refMinInt(c.H, 4)]++
		if o == negInf {
			continue
		}
		o += c.W
		for row := c.Y; row < c.Y+c.H; row++ {
			si := row - reg.Window.Y
			if si >= 0 && si < nSeg {
				if o > rowOff[si] {
					rowOff[si] = o
				}
				seg := &reg.Segments[si]
				if v := seg.Lo + o; v > lo {
					lo = v // pushed cell must stay inside its segment
				}
			}
		}
		left = append(left, refChainEntry{ci, o})
		sc.inLeft[ci] = true
	}
	sc.left = left

	// Right sweep: ascending x over right/none cells.
	for i := range rowOff {
		rowOff[i] = negInf
	}
	for row := y; row < y+t.H; row++ {
		if si := row - reg.Window.Y; si >= 0 && si < nSeg {
			rowOff[si] = t.W
		}
	}
	right := sc.right[:0]
	for k := 0; k < len(order); k++ {
		ci := order[k]
		c := &reg.Cells[ci]
		if (c.Y < y+t.H && c.Y+c.H > y && 2*c.X+c.W <= b2) || sc.inLeft[ci] {
			// Cells already claimed by the left chain cannot be squeezed
			// from both sides; the left chain takes precedence.
			continue
		}
		o := negInf
		for row := c.Y; row < c.Y+c.H; row++ {
			si := row - reg.Window.Y
			if si >= 0 && si < nSeg && rowOff[si] > o {
				o = rowOff[si]
			}
		}
		st.Shift.SubcellVisits += c.H
		st.ChainCells++
		st.ChainVisitsByH[refMinInt(c.H, 4)]++
		if o == negInf {
			continue
		}
		for row := c.Y; row < c.Y+c.H; row++ {
			si := row - reg.Window.Y
			if si >= 0 && si < nSeg {
				if v := o + c.W; v > rowOff[si] {
					rowOff[si] = v
				}
				seg := &reg.Segments[si]
				if v := seg.Hi - c.W - o; v < hi {
					hi = v
				}
			}
		}
		right = append(right, refChainEntry{ci, o})
	}
	sc.right = right
	for _, e := range left {
		sc.inLeft[e.ci] = false
	}

	if lo > hi {
		return Candidate{Feasible: false}
	}

	// Optional instrumentation: run the original multi-pass shifting on
	// scratch positions to observe its pass structure.
	if opt.MeasureOriginalShift {
		sc.refMeasureOriginal(reg, t, y, b2, lo, hi, st)
	}

	// Hinge emission: target V plus delta hinges for every chained cell.
	bps := append(sc.bps[:0], curve.VHinge(t.GX, vbase))
	for _, e := range left {
		c := &reg.Cells[e.ci]
		n := len(bps)
		bps = curve.AppendHingesForPushLeft(bps, c.X, c.GX, c.X+e.o)
		bps[n].Base = 0 // delta relative to the cell's current displacement
	}
	for _, e := range right {
		c := &reg.Cells[e.ci]
		n := len(bps)
		bps = curve.AppendHingesForPush(bps, c.X, c.GX, c.X-e.o)
		bps[n].Base = 0
	}
	sc.bps = bps

	var res curve.Result
	if opt.Streamed {
		res = sc.eval.Streamed(bps, lo, hi, &st.Curve)
	} else {
		res = sc.eval.Original(bps, lo, hi, &st.Curve)
	}
	if !res.Feasible {
		return Candidate{Feasible: false}
	}
	return Candidate{X: res.BestX, Y: y, Boundary2: b2, Cost: res.BestVal, Feasible: true}
}

// refMeasureOriginal runs shift.Original at the clamped preferred position on
// scratch positions, accumulating its stats, then restores the region.
func (sc *refScratch) refMeasureOriginal(reg *region.Region, t Target, y, b2, lo, hi int, st *Stats) {
	x0 := geom.Min(geom.Max(t.GX, lo), hi)
	saved := sc.saved[:0]
	for i := range reg.Cells {
		saved = append(saved, reg.Cells[i].X)
	}
	sc.saved = saved
	p := shift.Placement{TX: x0, TY: y, TW: t.W, TH: t.H, Boundary2: b2}
	shift.Original(reg, p, &st.OriginalShift)
	for i := range reg.Cells {
		reg.Cells[i].X = saved[i]
	}
	reg.SortSegmentCells()
}

// refXOrder returns region cell indices sorted ascending by current x.
func (sc *refScratch) refXOrder(reg *region.Region) []int {
	order := sc.order[:0]
	for i := range reg.Cells {
		order = append(order, i)
	}
	// Insertion sort: region cell counts are small and mostly pre-sorted.
	for i := 1; i < len(order); i++ {
		for j := i; j > 0 && reg.Cells[order[j]].X < reg.Cells[order[j-1]].X; j-- {
			order[j], order[j-1] = order[j-1], order[j]
		}
	}
	sc.order = order
	return order
}

func refMinInt(a, b int) int {
	if a < b {
		return a
	}
	return b
}

func refSortInts(xs []int) {
	for i := 1; i < len(xs); i++ {
		for j := i; j > 0 && xs[j] < xs[j-1]; j-- {
			xs[j], xs[j-1] = xs[j-1], xs[j]
		}
	}
}
