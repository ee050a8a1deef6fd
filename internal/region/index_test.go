package region

import (
	"maps"
	"slices"
	"testing"

	"github.com/flex-eda/flex/internal/geom"
	"github.com/flex-eda/flex/internal/model"
)

// refQuery is Query with the deduplication it had before home bins were
// cached: the home bin re-derived from the binned rect, per candidate.
func refQuery(idx *Index, win geom.Rect, dst []int) []int {
	bx0, bx1, by0, by1 := idx.binRange(win)
	for by := by0; by <= by1; by++ {
		for bx := bx0; bx <= bx1; bx++ {
			for _, id := range idx.bins[by*idx.nx+bx] {
				hbx0, _, hby0, _ := idx.binRange(idx.where[id])
				if by != geom.Max(by0, hby0) || bx != geom.Max(bx0, hbx0) {
					continue
				}
				if idx.l.Cells[id].Rect().Overlaps(win) {
					dst = append(dst, id)
				}
			}
		}
	}
	return dst
}

// binContent maps every cell binned in the bins Query(win) visits to the
// rect it was binned under: what Generation(win) stamps.
func binContent(idx *Index, win geom.Rect) map[int]geom.Rect {
	out := make(map[int]geom.Rect)
	bx0, bx1, by0, by1 := idx.binRange(win)
	for by := by0; by <= by1; by++ {
		for bx := bx0; bx <= bx1; bx++ {
			for _, id := range idx.bins[by*idx.nx+bx] {
				out[id] = idx.where[id]
			}
		}
	}
	return out
}

// FuzzIndexQuery drives an Index through Add, Update (a move) and Remove
// sequences decoded from ops, over cells that span several bins and
// overhang the die. After every step, for each of a fixed set of windows:
//   - Query returns the IDs refQuery does, in the same order;
//   - Generation changed exactly when the window's bin content (cells and
//     binned rects) changed, so an unchanged Generation implies an
//     unchanged Query. The converse does not hold for Query itself: a cell
//     entering a visited bin without overlapping the window bumps the
//     stamp and leaves the output alone.
func FuzzIndexQuery(f *testing.F) {
	f.Add([]byte{0, 1, 2, 3, 4, 5, 6, 7, 8, 9})
	f.Add([]byte{1, 3, 200, 7, 2, 3, 0, 0, 1, 3, 9, 1, 1, 3, 9, 1})
	f.Add([]byte{2, 0, 0, 0, 2, 1, 0, 0, 0, 4, 0, 0, 1, 5, 250, 250, 1, 6, 0, 13})
	f.Fuzz(func(t *testing.T, ops []byte) {
		const sites, rows, nCells = 48, 12, 10
		l := &model.Layout{NumSitesX: sites, NumRows: rows, RowHeight: 8}
		for i := 0; i < nCells; i++ {
			l.Cells = append(l.Cells, model.Cell{
				ID: i, X: 5 * i, Y: i % rows, W: 1 + (7*i)%13, H: 1 + i%4,
			})
		}
		idx := NewIndex(l, 8, 2, func(i int) bool { return i%3 != 0 })
		wins := []geom.Rect{
			geom.NewRect(0, 0, sites, rows), // every bin
			geom.NewRect(3, 1, 5, 1),        // inside one bin
			geom.NewRect(7, 1, 10, 4),       // straddling bin edges
			geom.NewRect(-6, -3, 14, 6),     // clipped at the origin
			geom.NewRect(sites-4, rows-2, 20, 9),
		}
		type snap struct {
			gen     uint64
			ids     []int
			content map[int]geom.Rect
		}
		take := func() []snap {
			s := make([]snap, len(wins))
			for w, win := range wins {
				got := idx.Query(win, nil)
				if want := refQuery(idx, win, nil); !slices.Equal(got, want) {
					t.Fatalf("win %v: Query %v, old dedup %v", win, got, want)
				}
				s[w] = snap{idx.Generation(win), got, binContent(idx, win)}
			}
			return s
		}
		prev := take()
		for len(ops) >= 4 {
			op, id := ops[0]%3, int(ops[1])%nCells
			c := &l.Cells[id]
			switch op {
			case 0:
				idx.Add(id)
			case 1:
				c.X = int(ops[2])%(sites+8) - 4
				c.Y = int(ops[3])%(rows+4) - 2
				idx.Update(id)
			case 2:
				idx.Remove(id)
			}
			ops = ops[4:]
			cur := take()
			for w, win := range wins {
				p, q := prev[w], cur[w]
				if changed := !maps.Equal(p.content, q.content); changed != (p.gen != q.gen) {
					t.Fatalf("win %v after op %d on cell %d: bin content changed %v, generation %d -> %d",
						win, op, id, changed, p.gen, q.gen)
				}
				if p.gen == q.gen && !slices.Equal(p.ids, q.ids) {
					t.Fatalf("win %v: generation unchanged but Query %v -> %v", win, p.ids, q.ids)
				}
			}
			prev = cur
		}
	})
}
