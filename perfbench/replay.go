package main

import (
	"bytes"
	"fmt"
	"time"

	flex "github.com/flex-eda/flex"
	"github.com/flex-eda/flex/internal/core"
	"github.com/flex-eda/flex/internal/fop"
	"github.com/flex-eda/flex/internal/geom"
	"github.com/flex-eda/flex/internal/model"
	"github.com/flex-eda/flex/internal/order"
	"github.com/flex-eda/flex/internal/region"
	"github.com/flex-eda/flex/internal/shift"
)

// phaseReplay is FLEX's sequential flow (internal/mgl's sequential engine
// under core's configuration: sliding-window ordering, streamed FOP, SACS
// commit) rebuilt from the public functions of order, region, fop and shift,
// with the wall time of each phase summed across targets.
type phaseReplay struct {
	Layout *model.Layout
	FOP    fop.Stats
	Commit shift.Stats

	Placed, Expansions, Fallbacks, Failed int64
	FOPCalls, LocalCells                  int64

	Order, Query, Extract, Best, SACS time.Duration
}

// Engine constants of the flow being replayed (internal/mgl and core).
const (
	replaySlidingWindow = 8
	replayMaxExpand     = 4
)

func snapRow(gy, h int, p model.PGParity, numRows int) int {
	y := clamp(gy, 0, numRows-h)
	if p.AllowsRow(y) {
		return y
	}
	for d := 1; ; d++ {
		if y-d >= 0 && p.AllowsRow(y-d) {
			return y - d
		}
		if y+d <= numRows-h && p.AllowsRow(y+d) {
			return y + d
		}
		if y-d < 0 && y+d > numRows-h {
			return y
		}
	}
}

func window(c *model.Cell, n int) geom.Rect {
	w, h := max(8*c.W, 64)<<uint(n), max(4*c.H, 6)<<uint(n)
	return geom.NewRect(c.GX+c.W/2-w/2, c.GY+c.H/2-h/2, w, h)
}

// replayFLEX legalizes a clone of in with the replayed flow.
func replayFLEX(in *model.Layout) *phaseReplay {
	l := in.Clone()
	r := &phaseReplay{Layout: l}
	for i := range l.Cells { // step a) pre-move
		c := &l.Cells[i]
		if !c.Fixed {
			c.X = clamp(c.GX, 0, l.NumSitesX-c.W)
			c.Y = snapRow(c.GY, c.H, c.Parity, l.NumRows)
		}
	}
	placed := make([]bool, len(l.Cells))
	idx := region.NewIndex(l, 32, 4, func(i int) bool { return l.Cells[i].Fixed })
	soa := model.NewSoA(l)
	die := l.Die()
	opts := fop.Options{Streamed: true}

	t := time.Now()
	sched := order.NewSlidingWindow(l, replaySlidingWindow, order.DensityEstimator(l, idx, 96, 12))
	r.Order += time.Since(t)
	var cands []int
	for {
		t = time.Now()
		id, ok := sched.Next() // step b)
		r.Order += time.Since(t)
		if !ok {
			return r
		}
		c := &l.Cells[id]
		tg := fop.Target{GX: c.GX, GY: c.GY, W: c.W, H: c.H, ParityOK: c.Parity.AllowsRow, RowHeight: l.RowHeight}
		for n := 0; ; n++ {
			win := window(c, n)
			if n >= replayMaxExpand {
				win = die
				r.Fallbacks++
			} else if n > 0 {
				r.Expansions++
			}
			t = time.Now() // step c)
			cands = idx.Query(win, cands[:0])
			t1 := time.Now()
			reg := region.ExtractFromSoA(soa, placed, id, die, win, cands)
			t2 := time.Now()
			cand := fop.Best(reg, tg, opts, &r.FOP) // step d)
			t3 := time.Now()
			r.Query += t1.Sub(t)
			r.Extract += t2.Sub(t1)
			r.Best += t3.Sub(t2)
			r.FOPCalls++
			r.LocalCells += int64(len(reg.Cells))
			if cand.Feasible && r.commit(l, idx, soa, placed, id, reg, cand) {
				break
			}
			if n >= replayMaxExpand {
				r.Failed++
				break
			}
		}
	}
}

// commit is step e): the SACS shift (timed), then the write-back of moved
// cells into the layout, the geometry mirror and the index.
func (r *phaseReplay) commit(l *model.Layout, idx *region.Index, soa *model.SoA, placed []bool, id int, reg *region.Region, cand fop.Candidate) bool {
	t := time.Now()
	p := shift.Placement{TX: cand.X, TY: cand.Y, TW: reg.TargetW, TH: reg.TargetH, Boundary2: cand.Boundary2}
	ok := shift.SACS(reg, p, &r.Commit)
	r.SACS += time.Since(t)
	if !ok {
		return false
	}
	for i := range reg.Cells {
		lc := &reg.Cells[i]
		if cell := &l.Cells[lc.ID]; cell.X != lc.X {
			cell.X = lc.X
			soa.Set(lc.ID, cell.X, cell.Y)
			idx.Update(lc.ID)
		}
	}
	tc := &l.Cells[id]
	tc.X, tc.Y = cand.X, cand.Y
	soa.Set(id, tc.X, tc.Y)
	placed[id] = true
	idx.Add(id)
	r.Placed++
	return true
}

// engineRun is one layout legalized three ways: timed through the public
// flex.LegalizeWith, through core.Legalize for the engine's own counters,
// and through the phase replay.
type engineRun struct {
	Movable  int
	Legalize time.Duration // flex.LegalizeWith(EngineFLEX) wall
	Core     *core.Result
	Replay   *phaseReplay
	Mismatch string // why the replay is not faithful ("" when it is)
}

// runEngine legalizes l three ways and checks the fidelity gate: the
// replay's layout bytes must equal flex.LegalizeWith's, and its FOP, shift
// and expansion counters must equal the engine's.
func runEngine(l *model.Layout) (*engineRun, error) {
	e := &engineRun{Movable: len(l.MovableIDs())}
	t := time.Now()
	out, err := flex.LegalizeWith(l, flex.EngineFLEX, flex.Options{})
	e.Legalize = time.Since(t)
	if err != nil {
		return nil, err
	}
	e.Core = core.Legalize(l, core.Config{})
	e.Replay = replayFLEX(l)
	e.Mismatch = fidelity(out.Layout, e.Core, e.Replay)
	return e, nil
}

func fidelity(want *model.Layout, c *core.Result, r *phaseReplay) string {
	var a, b bytes.Buffer
	if err := model.Encode(&a, want); err != nil {
		return err.Error()
	}
	if err := model.Encode(&b, r.Layout); err != nil {
		return err.Error()
	}
	st := &c.Stats
	switch {
	case !bytes.Equal(a.Bytes(), b.Bytes()):
		return fmt.Sprintf("layout %s: replayed bytes differ from flex.LegalizeWith", want.Name)
	case r.FOP != st.FOP:
		return fmt.Sprintf("layout %s: fop stats differ: replay %+v, engine %+v", want.Name, r.FOP, st.FOP)
	case r.Commit != st.Commit:
		return fmt.Sprintf("layout %s: shift stats differ: replay %+v, engine %+v", want.Name, r.Commit, st.Commit)
	case r.Placed != st.Placed || r.Expansions != st.Expansions || r.Fallbacks != st.Fallbacks || r.Failed != st.Failed:
		return fmt.Sprintf("layout %s: placement counters differ", want.Name)
	}
	return ""
}
