// Package order implements target-cell processing orderings (Sec. 3.1.2 of
// the FLEX paper). The order in which a heuristic legalizer places cells
// strongly affects quality: the baseline orders by cell size only, while
// FLEX refines the tail of a sliding window by localRegion density so that
// hard, high-density neighbourhoods are handled before they get crowded.
package order

import (
	"sort"

	"github.com/flex-eda/flex/internal/geom"
	"github.com/flex-eda/flex/internal/model"
	"github.com/flex-eda/flex/internal/region"
)

// Scheduler yields target cells in processing order. Implementations are
// stateful: Next pops the next target.
type Scheduler interface {
	// Next returns the next target cell ID, or ok=false when exhausted.
	Next() (id int, ok bool)
}

// bySizeDesc sorts cell IDs by descending area, breaking ties by descending
// height then ascending ID, matching the "larger cells first" heuristic.
func bySizeDesc(l *model.Layout, ids []int) {
	sort.SliceStable(ids, func(a, b int) bool {
		ca, cb := &l.Cells[ids[a]], &l.Cells[ids[b]]
		if ca.Area() != cb.Area() {
			return ca.Area() > cb.Area()
		}
		if ca.H != cb.H {
			return ca.H > cb.H
		}
		return ids[a] < ids[b]
	})
}

// SizeOrder is the static size-descending ordering used by the MGL and
// DATE'22 baselines.
type SizeOrder struct {
	queue []int
}

// NewSizeOrder builds a size-descending scheduler over the layout's movable
// cells.
func NewSizeOrder(l *model.Layout) *SizeOrder {
	ids := l.MovableIDs()
	bySizeDesc(l, ids)
	return &SizeOrder{queue: ids}
}

// Next implements Scheduler.
func (s *SizeOrder) Next() (int, bool) {
	if len(s.queue) == 0 {
		return 0, false
	}
	id := s.queue[0]
	s.queue = s.queue[1:]
	return id, true
}

// SlidingWindow is the FLEX ordering: an initial size-descending sequence
// refined on the fly. The head of the window (C_cur) is processed next and
// the second element (C_next) stays fixed so its region can be preloaded,
// while the remaining window entries are re-sorted by current localRegion
// density, highest first.
type SlidingWindow struct {
	queue   []int
	w       int
	density func(id int) float64
	dens    []float64 // per-pop density scratch, parallel to the window tail
}

// NewSlidingWindow builds the FLEX scheduler. w is the window length
// (w >= 3 for the reordering to have any effect); density estimates the
// current localRegion density around a cell.
func NewSlidingWindow(l *model.Layout, w int, density func(id int) float64) *SlidingWindow {
	ids := l.MovableIDs()
	bySizeDesc(l, ids)
	if w < 1 {
		w = 1
	}
	return &SlidingWindow{queue: ids, w: w, density: density}
}

// Next implements Scheduler: pops C_cur, then re-sorts positions
// [2, w) of the remaining queue (everything in the window except the fixed
// C_next) by density, descending.
func (s *SlidingWindow) Next() (int, bool) {
	if len(s.queue) == 0 {
		return 0, false
	}
	id := s.queue[0]
	s.queue = s.queue[1:]
	if s.density != nil && len(s.queue) > 2 {
		hi := geom.Min(s.w-1, len(s.queue))
		if hi > 2 {
			seg := s.queue[1:hi]
			dens := s.dens[:0]
			for _, v := range seg {
				dens = append(dens, s.density(v))
			}
			s.dens = dens
			// Stable insertion sort, density descending: same order as a
			// stable sort over a density map, without per-pop allocations.
			for i := 1; i < len(seg); i++ {
				for j := i; j > 0 && dens[j] > dens[j-1]; j-- {
					seg[j], seg[j-1] = seg[j-1], seg[j]
					dens[j], dens[j-1] = dens[j-1], dens[j]
				}
			}
		}
	}
	return id, true
}

// DensityEstimator returns a localRegion-density estimate function backed
// by the spatial index: occupied area of indexed cells in a window around
// the cell's global position over the window area.
//
// Estimates are memoized per cell. A cell's window depends only on its
// immutable size and global position, so its density can change only when
// a cell enters or leaves the index bins that window covers; the memo is
// keyed by idx.Generation over the window and recomputed when that moves.
// This is exact as long as indexed cells move only through
// Index.Update/Add/Remove, as in every legalizer flow.
func DensityEstimator(l *model.Layout, idx *region.Index, winW, winH int) func(id int) float64 {
	var buf []int // reused across estimates; estimator calls are serial
	type memo struct {
		gen  uint64
		dens float64
		ok   bool
	}
	memos := make([]memo, len(l.Cells))
	return func(id int) float64 {
		c := &l.Cells[id]
		win := geom.NewRect(c.GX+c.W/2-winW/2, c.GY+c.H/2-winH/2, winW, winH).Intersect(l.Die())
		if win.Empty() {
			return 1
		}
		gen := idx.Generation(win)
		if m := &memos[id]; m.ok && m.gen == gen {
			return m.dens
		}
		used := c.Area()
		buf = idx.Query(win, buf[:0])
		for _, other := range buf {
			if other == id {
				continue
			}
			used += l.Cells[other].Rect().Intersect(win).Area()
		}
		d := float64(used) / float64(win.Area())
		memos[id] = memo{gen: gen, dens: d, ok: true}
		return d
	}
}
