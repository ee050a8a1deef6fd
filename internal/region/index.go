package region

import (
	"github.com/flex-eda/flex/internal/geom"
	"github.com/flex-eda/flex/internal/model"
)

// Index is a uniform-grid spatial index over a layout, used by the
// legalizer flow to enumerate the cells intersecting a window without
// scanning the whole design. Cells are re-binned when they move.
type Index struct {
	l          *model.Layout
	binW, binH int
	nx, ny     int
	bins       [][]int     // bin -> cell IDs (unsorted)
	gens       []uint64    // bin -> count of Add/Remove calls touching it
	where      []geom.Rect // cell ID -> rect it was binned under
	home       []binXY     // cell ID -> lowest bin column and row of where
	present    []bool      // cell ID -> currently indexed
}

// binXY is a bin's column and row.
type binXY struct{ x, y int32 }

// NewIndex builds an index over the layout with bins of the given size
// (sites × rows). Only cells for which include(id) is true are inserted;
// pass nil to index everything.
func NewIndex(l *model.Layout, binW, binH int, include func(int) bool) *Index {
	if binW <= 0 {
		binW = 32
	}
	if binH <= 0 {
		binH = 4
	}
	idx := &Index{
		l:    l,
		binW: binW, binH: binH,
		nx:      (l.NumSitesX + binW - 1) / binW,
		ny:      (l.NumRows + binH - 1) / binH,
		where:   make([]geom.Rect, len(l.Cells)),
		home:    make([]binXY, len(l.Cells)),
		present: make([]bool, len(l.Cells)),
	}
	if idx.nx < 1 {
		idx.nx = 1
	}
	if idx.ny < 1 {
		idx.ny = 1
	}
	idx.bins = make([][]int, idx.nx*idx.ny)
	idx.gens = make([]uint64, idx.nx*idx.ny)
	for i := range l.Cells {
		if include == nil || include(i) {
			idx.Add(i)
		}
	}
	return idx
}

func (idx *Index) binRange(r geom.Rect) (bx0, bx1, by0, by1 int) {
	bx0 = geom.Max(0, r.X/idx.binW)
	by0 = geom.Max(0, r.Y/idx.binH)
	bx1 = geom.Min(idx.nx-1, (r.X+r.W-1)/idx.binW)
	by1 = geom.Min(idx.ny-1, (r.Y+r.H-1)/idx.binH)
	return
}

// Add inserts cell id at its current position.
func (idx *Index) Add(id int) {
	if idx.present[id] {
		return
	}
	r := idx.l.Cells[id].Rect()
	bx0, bx1, by0, by1 := idx.binRange(r)
	for by := by0; by <= by1; by++ {
		for bx := bx0; bx <= bx1; bx++ {
			b := by*idx.nx + bx
			idx.bins[b] = append(idx.bins[b], id)
			idx.gens[b]++
		}
	}
	idx.where[id] = r
	idx.home[id] = binXY{int32(bx0), int32(by0)}
	idx.present[id] = true
}

// Remove deletes cell id from the index.
func (idx *Index) Remove(id int) {
	if !idx.present[id] {
		return
	}
	r := idx.where[id]
	bx0, bx1, by0, by1 := idx.binRange(r)
	for by := by0; by <= by1; by++ {
		for bx := bx0; bx <= bx1; bx++ {
			b := by*idx.nx + bx
			idx.gens[b]++
			s := idx.bins[b]
			for k, v := range s {
				if v == id {
					s[k] = s[len(s)-1]
					idx.bins[b] = s[:len(s)-1]
					break
				}
			}
		}
	}
	idx.present[id] = false
}

// Update re-bins cell id after its position changed.
func (idx *Index) Update(id int) {
	if !idx.present[id] {
		idx.Add(id)
		return
	}
	if idx.where[id] == idx.l.Cells[id].Rect() {
		return
	}
	idx.Remove(id)
	idx.Add(id)
}

// Query appends to dst the IDs of indexed cells whose rect overlaps win,
// without duplicates, and returns the extended slice. Deduplication is
// allocation-free: a cell spanning several bins is accepted only at the
// first query bin covering it in row-major order (its home bin, cached by
// Add, pins that bin down), which also preserves first-encounter output
// order. No state is shared across calls, so concurrent Query on one index
// is safe as long as no writer runs.
func (idx *Index) Query(win geom.Rect, dst []int) []int {
	bx0, bx1, by0, by1 := idx.binRange(win)
	for by := by0; by <= by1; by++ {
		for bx := bx0; bx <= bx1; bx++ {
			for _, id := range idx.bins[by*idx.nx+bx] {
				h := idx.home[id]
				if by != max(by0, int(h.y)) || bx != max(bx0, int(h.x)) {
					continue // counted at its first covering bin already
				}
				if idx.l.Cells[id].Rect().Overlaps(win) {
					dst = append(dst, id)
				}
			}
		}
	}
	return dst
}

// Generation returns a change stamp for the bins Query(win) visits: the
// sum of their per-bin counters, which every Add and Remove touching the
// bin bumps (Update is a Remove plus an Add). Counters only grow, so the
// stamp is unchanged exactly when no cell entered or left those bins —
// that is, when Query(win) would return the same cells at the same rects,
// provided positions only change through Update.
func (idx *Index) Generation(win geom.Rect) uint64 {
	bx0, bx1, by0, by1 := idx.binRange(win)
	var g uint64
	for by := by0; by <= by1; by++ {
		for bx := bx0; bx <= bx1; bx++ {
			g += idx.gens[by*idx.nx+bx]
		}
	}
	return g
}
