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
// allocation-free: every evalPoint reuses the same cell table, reach list,
// chain lists, row-offset array, hinge buffer, and curve evaluator.
// Scratches are pooled (scratchPool): a Best call takes one for its whole
// duration and returns it on exit, so concurrent Best calls (the batched
// engine's frozen evaluations) never share one.
type scratch struct {
	order  []int
	cells  []tableCell
	all    visitCount // every table cell once
	joined []bool     // segment s -> a multi-row cell spans rows s and s+1
	// The candidate row's reach: the table positions (ascending x) of the
	// cells touching the row closure [c0, c1) of the target's segments
	// [ts0, ts1), and the positions within reach of the cells in the
	// target's own rows.
	reach    []int
	tpos     []int
	c0, c1   int
	ts0, ts1 int
	rowOff   []int
	left     []chainEntry
	right    []chainEntry
	inLeft   []bool // table position -> claimed by the left chain
	bps      []curve.Breakpoint
	eval     curve.Evaluator
	centers  []int
	bounds   []int
	saved    []int
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
		sc.buildReach(y-win.Y, y+t.H-win.Y)

		for _, b2 := range sc.slotBoundaries() {
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
// x, marks the segment rows that multi-row cells join, and returns the
// number of cells.
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
	sc.joined = resize(sc.joined, nSeg)
	clear(sc.joined)
	tab := sc.cells[:0]
	sc.all = visitCount{}
	for _, ci := range order {
		c := &reg.Cells[ci]
		s0 := min(max(c.Y-reg.Window.Y, 0), nSeg)
		e := tableCell{
			x: c.X, gx: c.GX, c2: 2*c.X + c.W,
			s0: s0, s1: min(max(c.Y+c.H-reg.Window.Y, s0), nSeg),
			w: c.W, h: c.H, hb: min(c.H, 4),
			segLo: negInf, segHi: 1 << 50,
		}
		for si := e.s0; si < e.s1; si++ {
			e.segLo = max(e.segLo, reg.Segments[si].Lo)
			e.segHi = min(e.segHi, reg.Segments[si].Hi)
		}
		for si := e.s0; si+1 < e.s1; si++ {
			sc.joined[si] = true
		}
		tab = append(tab, e)
		sc.all.add(&e)
	}
	sc.cells = tab
	return len(tab)
}

// buildReach computes, for a target over segments [ts0, ts1), the only
// cells its shift chains can touch. A chain starts in the target's rows
// and spreads to another row only through a cell spanning both, so it
// stays inside the row closure [c0, c1): the target's rows extended up and
// down through every row pair a multi-row cell joins. A cell wholly
// outside the closure keeps a negInf offset in both sweeps of every
// insertion point; the sweeps walk only the rest.
func (sc *scratch) buildReach(ts0, ts1 int) {
	c0, c1 := ts0, ts1
	for c0 > 0 && sc.joined[c0-1] {
		c0--
	}
	for c1 < len(sc.joined) && sc.joined[c1-1] {
		c1++
	}
	reach, tpos := sc.reach[:0], sc.tpos[:0]
	for k := range sc.cells {
		c := &sc.cells[k]
		if c.s0 >= c1 || c.s1 <= c0 {
			continue
		}
		if c.s0 < ts1 && c.s1 > ts0 {
			tpos = append(tpos, len(reach))
		}
		reach = append(reach, k)
	}
	sc.reach, sc.tpos = reach, tpos
	sc.c0, sc.c1, sc.ts0, sc.ts1 = c0, c1, ts0, ts1
}

// slotBoundaries returns the doubled-x boundary values that induce every
// distinct left/right partition of the cells in the target's rows (the
// reach's tpos cells): one below the smallest doubled center, then one at
// each distinct doubled center. The returned slice is scratch memory,
// valid until the next call.
func (sc *scratch) slotBoundaries() []int {
	centers := sc.centers[:0]
	for _, j := range sc.tpos {
		centers = append(centers, sc.cells[sc.reach[j]].c2)
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

	tab, reach, rowOff, inLeft := sc.cells, sc.reach, sc.rowOff, sc.inLeft
	ts0, ts1 := sc.ts0, sc.ts1

	// The boundary b2 splits the target-row cells into left (2x+w ≤ b2)
	// and right. Before the first left cell in descending x, and before
	// the first right cell in ascending x, no chain has reached any row:
	// each sweep starts there. Both sweeps nominally visit every table
	// cell but the ones they skip — the left sweep the right partition,
	// the right sweep the left chain (which holds the whole left
	// partition) — so the visit statistics are two full passes less the
	// skipped cells, tallied as they are found.
	var skipped visitCount
	lstart, rstart := -1, len(reach)
	for i := len(sc.tpos) - 1; i >= 0; i-- {
		j := sc.tpos[i]
		if c := &tab[reach[j]]; c.c2 > b2 {
			skipped.add(c)
			rstart = j
		} else if lstart < 0 {
			lstart = j
		}
	}

	// Left sweep: descending x over left/none cells. Reach cells read and
	// write offsets only inside the closure, so only it is reset.
	for si := sc.c0; si < sc.c1; si++ {
		rowOff[si] = negInf
	}
	for si := ts0; si < ts1; si++ {
		rowOff[si] = 0
	}
	lo, hi := lo0, hi0
	left := sc.left[:0]
	for j := lstart; j >= 0; j-- {
		k := reach[j]
		c := &tab[k]
		if c.c2 > b2 && c.s0 < ts1 && c.s1 > ts0 {
			continue // right-partition cell
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
		skipped.add(c)
	}
	sc.left = left

	// Right sweep: ascending x over right/none cells.
	for si := sc.c0; si < sc.c1; si++ {
		rowOff[si] = negInf
	}
	for si := ts0; si < ts1; si++ {
		rowOff[si] = t.W
	}
	right := sc.right[:0]
	for j := rstart; j < len(reach); j++ {
		k := reach[j]
		if inLeft[k] {
			// Cells already claimed by the left chain cannot be squeezed
			// from both sides; the left chain takes precedence.
			continue
		}
		c := &tab[k]
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
