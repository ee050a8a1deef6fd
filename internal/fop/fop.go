// Package fop implements FOP — finding the optimal placement position —
// the triple-loop bottleneck of the MGL algorithm (Sec. 2.3 of the FLEX
// paper). For a target cell and its localRegion it enumerates every
// insertion point (loop 1: candidate row spans; loop 2: slot partitions;
// loop 3: the per-point operator chain), evaluates the summed displacement
// curve of each point, and returns the position with minimum added
// displacement.
//
// Per insertion point the operator chain is exactly the paper's: cell
// shifting (chain offsets in sort-ahead form, optionally re-measured with
// the original multi-pass algorithm for instrumentation), breakpoint
// emission, and the sort/merge/sum-slopes/calculate-value pipeline from
// internal/curve, in either the original five-operator or the restructured
// streaming organization.
package fop

import (
	"sync"

	"github.com/flex-eda/flex/internal/curve"
	"github.com/flex-eda/flex/internal/geom"
	"github.com/flex-eda/flex/internal/region"
	"github.com/flex-eda/flex/internal/shift"
)

const negInf = -(1 << 50)

// Target carries the target cell's placement-relevant attributes.
type Target struct {
	GX, GY    int // global-placement position
	W, H      int
	ParityOK  func(y int) bool // row-parity predicate
	RowHeight int              // sites per row, for the vertical cost term
}

// Options selects the evaluation variants (the ablation axes of Figs. 5/6).
type Options struct {
	// Streamed selects the restructured fwdtraverse/bwdtraverse curve
	// pipeline instead of the original five-operator sequence. Results are
	// identical; only instrumentation differs.
	Streamed bool
	// MeasureOriginalShift additionally runs the original multi-pass
	// shifting algorithm per insertion point (on scratch positions) so its
	// pass counts are observable; positions are restored afterwards.
	MeasureOriginalShift bool
}

// Candidate is a scored placement option for the target.
type Candidate struct {
	X, Y      int
	Boundary2 int // slot boundary for the committing shift
	Cost      int // added displacement in sites (incl. target's own)
	Feasible  bool
}

// Better reports whether c beats o (lower cost; ties broken by lower x
// then lower y for determinism).
func (c Candidate) Better(o Candidate) bool {
	if !c.Feasible {
		return false
	}
	if !o.Feasible {
		return true
	}
	if c.Cost != o.Cost {
		return c.Cost < o.Cost
	}
	if c.Y != o.Y {
		return c.Y < o.Y
	}
	return c.X < o.X
}

// Stats aggregates the per-operator work of one FOP invocation, the raw
// material for every platform time model.
type Stats struct {
	CandidateRows   int
	InsertionPoints int
	ChainCells      int // cells visited by the offset sweeps (shift work)
	// ChainVisitsByH counts sweep visits by cell height (index min(h, 4));
	// the FPGA bandwidth model needs the multi-row access mix.
	ChainVisitsByH [5]int
	Shift          shift.Stats
	Curve          curve.Stats
	OriginalShift  shift.Stats // populated when MeasureOriginalShift is set
}

// Add accumulates other into st.
func (st *Stats) Add(other *Stats) {
	st.CandidateRows += other.CandidateRows
	st.InsertionPoints += other.InsertionPoints
	st.ChainCells += other.ChainCells
	for i := range st.ChainVisitsByH {
		st.ChainVisitsByH[i] += other.ChainVisitsByH[i]
	}
	addShift(&st.Shift, &other.Shift)
	st.Curve.RawBps += other.Curve.RawBps
	st.Curve.MergedBps += other.Curve.MergedBps
	st.Curve.SortOps += other.Curve.SortOps
	st.Curve.Traversal += other.Curve.Traversal
	addShift(&st.OriginalShift, &other.OriginalShift)
}

func addShift(dst, src *shift.Stats) {
	dst.Passes += src.Passes
	dst.SubcellVisits += src.SubcellVisits
	dst.Moves += src.Moves
	dst.SortedCells += src.SortedCells
	dst.SortOps += src.SortOps
}

// chainEntry records one cell swept into a shift chain (by its position in
// the cell table) and its offset.
type chainEntry struct {
	k int
	o int
}

// tableCell is one entry of the per-Best cell table: a region cell's
// sweep attributes, precomputed once per call so that the two chain sweeps
// of every insertion point read one dense x-ordered array instead of
// re-deriving row and segment bounds from the region.
type tableCell struct {
	x, gx  int
	c2     int // doubled center 2X+W, compared with the slot boundary
	y0, y1 int // absolute row span [Y, Y+H)
	s0, s1 int // segment indices the cell covers, clamped to the window (s0 ≤ s1)
	w, h   int
	hb     int // min(H, 4), the ChainVisitsByH bucket
	segLo  int // max segment Lo over [s0, s1): a left push's floor
	segHi  int // min segment Hi over [s0, s1): a right push's ceiling
}

// maxOffset returns the largest chain offset over the cell's rows, or
// negInf when the chain reaches none of them.
func (c *tableCell) maxOffset(rowOff []int) int {
	if c.s1-c.s0 == 1 { // single-row fast path
		return rowOff[c.s0]
	}
	o := negInf
	for _, r := range rowOff[c.s0:c.s1] {
		o = max(o, r)
	}
	return o
}

// visitCount tallies chain-sweep visits the way Stats charges them: cells,
// their rows (subcell visits), and cells by height bucket.
type visitCount struct {
	cells, rows int
	byH         [5]int
}

func (v *visitCount) add(c *tableCell) {
	v.cells++
	v.rows += c.h
	v.byH[c.hb]++
}

// scratch holds the per-Best-call working memory so the triple loop runs
// allocation-free: every evalPoint reuses the same cell table, chain lists,
// row-offset array, hinge buffer, and curve evaluator. Scratches are pooled
// (scratchPool): a Best call takes one for its whole duration and returns
// it on exit, so concurrent Best calls (the batched engine's frozen
// evaluations) never share one.
type scratch struct {
	order   []int
	cells   []tableCell
	all     visitCount // every table cell once
	rowOff  []int
	left    []chainEntry
	right   []chainEntry
	inLeft  []bool // table position -> claimed by the left chain
	bps     []curve.Breakpoint
	eval    curve.Evaluator
	centers []int
	bounds  []int
	saved   []int
}

var scratchPool = sync.Pool{New: func() any { return new(scratch) }}

// Best evaluates every insertion point in the region and returns the best
// candidate. The region's cell positions are left untouched.
func Best(reg *region.Region, t Target, opt Options, st *Stats) Candidate {
	if st == nil {
		st = &Stats{}
	}
	best := Candidate{Feasible: false}
	win := reg.Window
	sc := scratchPool.Get().(*scratch)
	defer scratchPool.Put(sc)

	// Ahead sort: one x-sort of the region's cells shared by every
	// insertion point, mirroring the hardware's single per-region sorter.
	n := sc.buildTable(reg)
	st.Shift.SortedCells += n
	if n > 1 {
		logn := 0
		for v := n; v > 1; v >>= 1 {
			logn++
		}
		st.Shift.SortOps += n * logn
	}
	sc.rowOff = resize(sc.rowOff, len(reg.Segments))
	// evalPoint leaves inLeft all false; clearing anyway keeps a scratch
	// returned to the pool by a panicking call from poisoning the next.
	sc.inLeft = resize(sc.inLeft, n)
	clear(sc.inLeft)

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

		for _, b2 := range sc.slotBoundaries(reg, y, t.H) {
			st.InsertionPoints++
			c := sc.evalPoint(reg, t, y, b2, lo0, hi0, vbase, opt, st)
			if c.Better(best) {
				best = c
			}
		}
	}
	return best
}

// buildTable fills sc.cells with the region's cells in ascending current
// x and returns their number.
func (sc *scratch) buildTable(reg *region.Region) int {
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

	nSeg := len(reg.Segments)
	tab := sc.cells[:0]
	sc.all = visitCount{}
	for _, ci := range order {
		c := &reg.Cells[ci]
		s0 := min(max(c.Y-reg.Window.Y, 0), nSeg)
		e := tableCell{
			x: c.X, gx: c.GX, c2: 2*c.X + c.W,
			y0: c.Y, y1: c.Y + c.H,
			s0: s0, s1: min(max(c.Y+c.H-reg.Window.Y, s0), nSeg),
			w: c.W, h: c.H, hb: min(c.H, 4),
			segLo: negInf, segHi: 1 << 50,
		}
		for si := e.s0; si < e.s1; si++ {
			e.segLo = max(e.segLo, reg.Segments[si].Lo)
			e.segHi = min(e.segHi, reg.Segments[si].Hi)
		}
		tab = append(tab, e)
		sc.all.add(&e)
	}
	sc.cells = tab
	return len(tab)
}

// slotBoundaries returns the doubled-x boundary values that induce every
// distinct left/right partition of the cells in rows [y, y+h): one below
// the smallest doubled center, then one at each distinct doubled center.
// The returned slice is scratch memory, valid until the next call.
func (sc *scratch) slotBoundaries(reg *region.Region, y, h int) []int {
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
	sortInts(centers)
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

// evalPoint scores one insertion point: chain offsets (cell shifting in
// sort-ahead form), hinge emission, and curve evaluation.
func (sc *scratch) evalPoint(reg *region.Region, t Target, y, b2, lo0, hi0, vbase int, opt Options, st *Stats) Candidate {
	st.Shift.Passes += 2 // one outward sweep per phase

	tab := sc.cells
	rowOff := sc.rowOff
	inLeft := sc.inLeft
	yEnd := y + t.H
	// The target's rows as segment indices (clamped like the cells').
	ts0, ts1 := max(y-reg.Window.Y, 0), min(yEnd-reg.Window.Y, len(rowOff))
	// Each sweep visits every cell it does not skip; tallying the (fewer)
	// skipped cells and subtracting from two full passes gives the same
	// visit statistics.
	var skipped visitCount

	// Left sweep: descending x over left/none cells. A cell is in the
	// target's rows when y0 < y+t.H && y1 > y; among those, the boundary b2
	// splits left (2x+w ≤ b2) from right.
	for i := range rowOff {
		rowOff[i] = negInf
	}
	for si := ts0; si < ts1; si++ {
		rowOff[si] = 0
	}
	lo, hi := lo0, hi0
	left := sc.left[:0]
	for k := len(tab) - 1; k >= 0; k-- {
		c := &tab[k]
		if c.c2 > b2 && c.y0 < yEnd && c.y1 > y {
			skipped.add(c) // right-partition cell
			continue
		}
		o := c.maxOffset(rowOff)
		if o == negInf {
			continue
		}
		o += c.w
		for si := c.s0; si < c.s1; si++ {
			rowOff[si] = max(rowOff[si], o)
		}
		lo = max(lo, c.segLo+o) // pushed cell must stay inside its segments
		left = append(left, chainEntry{k, o})
		inLeft[k] = true
	}
	sc.left = left

	// Right sweep: ascending x over right/none cells.
	for i := range rowOff {
		rowOff[i] = negInf
	}
	for si := ts0; si < ts1; si++ {
		rowOff[si] = t.W
	}
	right := sc.right[:0]
	for k := range tab {
		c := &tab[k]
		if inLeft[k] || (c.c2 <= b2 && c.y0 < yEnd && c.y1 > y) {
			// Cells already claimed by the left chain cannot be squeezed
			// from both sides; the left chain takes precedence.
			skipped.add(c)
			continue
		}
		o := c.maxOffset(rowOff)
		if o == negInf {
			continue
		}
		for si := c.s0; si < c.s1; si++ {
			rowOff[si] = max(rowOff[si], o+c.w)
		}
		hi = min(hi, c.segHi-c.w-o)
		right = append(right, chainEntry{k, o})
	}
	sc.right = right
	for _, e := range left {
		inLeft[e.k] = false
	}
	st.ChainCells += 2*sc.all.cells - skipped.cells
	st.Shift.SubcellVisits += 2*sc.all.rows - skipped.rows
	for i, v := range skipped.byH {
		st.ChainVisitsByH[i] += 2*sc.all.byH[i] - v
	}

	if lo > hi {
		return Candidate{Feasible: false}
	}

	// Optional instrumentation: run the original multi-pass shifting on
	// scratch positions to observe its pass structure.
	if opt.MeasureOriginalShift {
		sc.measureOriginal(reg, t, y, b2, lo, hi, st)
	}

	// Hinge emission: target V plus delta hinges for every chained cell.
	// The left chain is walked backwards so both chains emit in ascending
	// threshold order, the near-sorted runs the curve sorter merges cheaply.
	bps := append(sc.bps[:0], curve.VHinge(t.GX, vbase))
	for i := len(left) - 1; i >= 0; i-- {
		e := left[i]
		c := &tab[e.k]
		n := len(bps)
		bps = curve.AppendHingesForPushLeft(bps, c.x, c.gx, c.x+e.o)
		bps[n].Base = 0 // delta relative to the cell's current displacement
	}
	for _, e := range right {
		c := &tab[e.k]
		n := len(bps)
		bps = curve.AppendHingesForPush(bps, c.x, c.gx, c.x-e.o)
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

// measureOriginal runs shift.Original at the clamped preferred position on
// scratch positions, accumulating its stats, then restores the region.
func (sc *scratch) measureOriginal(reg *region.Region, t Target, y, b2, lo, hi int, st *Stats) {
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

// resize returns s with length n, reusing its capacity.
func resize[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}

func sortInts(xs []int) {
	for i := 1; i < len(xs); i++ {
		for j := i; j > 0 && xs[j] < xs[j-1]; j-- {
			xs[j], xs[j-1] = xs[j-1], xs[j]
		}
	}
}
