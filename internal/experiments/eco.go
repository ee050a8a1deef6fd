package experiments

import (
	"bytes"
	"fmt"

	"github.com/flex-eda/flex"
	"github.com/flex-eda/flex/internal/benchjson"
	"github.com/flex-eda/flex/internal/model"
	"github.com/flex-eda/flex/internal/report"
	"github.com/flex-eda/flex/internal/shard"
)

// EcoPoint is one design's edit-stream measurement (the "Incremental
// legalization" extension; see docs/ARCHITECTURE.md): the design is
// legalized once in full across Bands row bands, then Edits independent
// in-halo cell moves are served two ways — incrementally (re-legalize only
// the dirty bands, splice the cached base outcome's clean bands) and as
// full re-runs — and the two must agree byte for byte.
type EcoPoint struct {
	Name  string
	Cells int // movable cells
	Rows  int // die height in rows
	Bands int // effective band count (the plan may clamp the request)
	Halo  int
	Edits int // edits actually served (bounded by eligible cells)
	Dirty int // bands re-legalized across the stream (the incremental work)
	// Match reports that every edit's incremental splice was byte-identical
	// to its full re-run — the correctness contract of the delta path. The
	// driver fails hard on a mismatch, so a rendered row always shows true.
	Match bool
	// FullModeled sums the modeled engine seconds of the full re-runs;
	// IncModeled those of the incremental dirty-band re-solves. Their ratio
	// is the edit stream's modeled speedup — the quantity the outcome cache
	// buys.
	FullModeled float64
	IncModeled  float64
	// Ops sums the FLEX engine's deterministic op counts across the
	// incremental re-solves — the benchjson trajectory record of the
	// incremental configuration.
	Ops benchjson.Ops
}

// Speedup returns the edit stream's modeled full/incremental ratio.
func (p EcoPoint) Speedup() float64 {
	if p.IncModeled > 0 {
		return p.FullModeled / p.IncModeled
	}
	return 0
}

// interiorEdit picks a deterministic in-halo move inside band b of the
// plan: the first movable parity-free cell whose halo-expanded row span
// stays strictly inside the band (so exactly one band dirties), shifted
// horizontally. Returns ok = false when the band has no eligible cell.
func interiorEdit(l *model.Layout, p *shard.Plan, b int, used map[string]bool) (flex.Edit, bool) {
	band := p.Bands[b]
	for i := range l.Cells {
		c := &l.Cells[i]
		if c.Fixed || c.Parity != model.ParityAny || used[c.Name] {
			continue
		}
		if c.GY-p.Halo < band.LoRow || c.GY+c.H+p.Halo > band.HiRow {
			continue
		}
		gx := (c.GX + 7) % (l.NumSitesX - c.W + 1)
		return flex.Edit{Op: flex.EditMove, Cell: c.Name, GX: gx, GY: c.GY}, true
	}
	return flex.Edit{}, false
}

// ecoCacheBytes bounds the outcome cache of the Eco driver's incremental
// service. Every edit's lookup refreshes the base entry, so only an edited
// entry larger than the rest of the budget could evict it — and then the
// edit misses the incremental path and the driver fails, saying so.
const ecoCacheBytes = 256 << 20

// Eco measures the incremental (ECO) legalization path over the (filtered,
// scaled) suite: per design, legalize the whole die once across bands row
// bands on a flex.Service with an outcome cache, then serve edits
// single-cell in-halo moves — each against the same base — as edited jobs
// on that service, which re-solves the dirty bands and splices the rest
// from the cached base outcome. Each edit's full re-run comes from a second
// service with no outcome cache, so the reference can never come from the
// cache it checks. The two stitched results must be byte-identical per
// edit, and every edit must take the incremental path; either failure fails
// the driver. The modeled speedup is the full-stream cost over the
// incremental-stream cost.
func Eco(opt Options, bands, halo, edits int) ([]EcoPoint, error) {
	opt = opt.withDefaults()
	if bands < 1 {
		return nil, fmt.Errorf("eco: band count must be >= 1, got %d", bands)
	}
	if halo < 0 {
		halo = 0
	}
	if edits < 1 {
		return nil, fmt.Errorf("eco: edit count must be >= 1, got %d", edits)
	}
	suite := opt.suite()
	if len(suite) == 0 {
		return nil, fmt.Errorf("eco: empty suite")
	}
	inc := opt.newService(flex.WithOutcomeCacheBytes(ecoCacheBytes))
	defer inc.Close()
	ref := opt.newService()
	defer ref.Close()
	out := make([]EcoPoint, 0, len(suite))
	for _, spec := range suite {
		base, err := opt.generate(spec, opt.Scale)
		if err != nil {
			return nil, err
		}
		// The service plans the same bands; the driver's copy only picks
		// edits that stay inside one band.
		plan, err := shard.PlanBands(base, bands, halo)
		if err != nil {
			return nil, fmt.Errorf("eco %s: %w", spec.Name, err)
		}
		job := flex.BatchJob{
			Layout: base, Engine: flex.EngineFLEX, Priority: opt.Priority,
			Shards: bands, ShardHalo: shardHalo(halo),
		}
		if _, err := submit(opt, inc, []flex.BatchJob{job}); err != nil {
			return nil, fmt.Errorf("eco %s: %w", spec.Name, err)
		}
		pt := EcoPoint{
			Name:  spec.Name,
			Cells: len(base.MovableIDs()),
			Rows:  base.NumRows,
			Bands: len(plan.Bands),
			Halo:  plan.Halo,
			Match: true,
			Ops:   benchjson.Ops{},
		}
		used := map[string]bool{}
		for e := 0; e < edits; e++ {
			edit, ok := interiorEdit(base, plan, e%len(plan.Bands), used)
			if !ok {
				// This band holds no eligible interior cell at this scale;
				// smaller streams still measure, they just say so.
				continue
			}
			used[edit.Cell] = true
			job.Edits = []flex.Edit{edit}
			before := inc.Stats().Incremental
			incRes, err := submit(opt, inc, []flex.BatchJob{job})
			if err != nil {
				return nil, fmt.Errorf("eco %s: %w", spec.Name, err)
			}
			if inc.Stats().Incremental == before {
				return nil, fmt.Errorf("eco %s edit %d: the edit missed the incremental path (full-run fallback)", spec.Name, e)
			}
			fullRes, err := submit(opt, ref, []flex.BatchJob{job})
			if err != nil {
				return nil, fmt.Errorf("eco %s: %w", spec.Name, err)
			}
			// Only an engine run carries op counts: bands spliced from the
			// cached base outcome have none.
			for _, band := range incRes[0].Shards {
				if band.Outcome.Ops == nil {
					continue
				}
				pt.Dirty++
				pt.IncModeled += band.Outcome.ModeledSeconds
				pt.Ops.Add(band.Outcome.Ops)
			}
			for _, band := range fullRes[0].Shards {
				pt.FullModeled += band.Outcome.ModeledSeconds
			}
			var incBuf, fullBuf bytes.Buffer
			if err := model.Encode(&incBuf, incRes[0].Outcome.Layout); err != nil {
				return nil, fmt.Errorf("eco %s: %w", spec.Name, err)
			}
			if err := model.Encode(&fullBuf, fullRes[0].Outcome.Layout); err != nil {
				return nil, fmt.Errorf("eco %s: %w", spec.Name, err)
			}
			if !bytes.Equal(incBuf.Bytes(), fullBuf.Bytes()) {
				return nil, fmt.Errorf("eco %s edit %d: incremental result differs from full re-run", spec.Name, e)
			}
			pt.Edits++
		}
		if pt.Edits == 0 {
			return nil, fmt.Errorf("eco %s: no band holds an interior movable cell at scale %g; raise -scale or lower -eco-bands", spec.Name, opt.Scale)
		}
		if opt.Bench != nil {
			opt.Bench.Add(benchjson.Record{
				Design: pt.Name, Engine: "flex",
				Config: fmt.Sprintf("eco bands=%d halo=%d edits=%d", pt.Bands, pt.Halo, pt.Edits),
				Cells:  pt.Cells, Legal: pt.Match,
				ModeledSeconds: pt.IncModeled, Ops: pt.Ops,
			})
		}
		out = append(out, pt)
	}
	return out, nil
}

// RenderEco renders the edit-stream measurements. Every column is
// deterministic: modeled seconds, not wall clock, price the two paths.
func RenderEco(pts []EcoPoint) *report.Table {
	t := report.NewTable("Incremental (ECO) legalization: dirty-band re-solve vs full re-run",
		"Design", "Cells", "Rows", "Bands", "Halo", "Edits", "Dirty",
		"Match", "T_full(s)", "T_inc(s)", "Speedup")
	for _, p := range pts {
		t.Add(p.Name, fmt.Sprint(p.Cells), fmt.Sprint(p.Rows),
			fmt.Sprint(p.Bands), fmt.Sprint(p.Halo),
			fmt.Sprint(p.Edits), fmt.Sprint(p.Dirty), fmt.Sprint(p.Match),
			report.Secs(p.FullModeled), report.Secs(p.IncModeled),
			report.X(p.Speedup()))
	}
	return t
}
