package experiments

import (
	"fmt"
	"time"

	"github.com/flex-eda/flex"
	"github.com/flex-eda/flex/internal/benchjson"
	"github.com/flex-eda/flex/internal/report"
)

// ShardedPoint is one design's row-band sharded legalization run (the
// "Sharded full-scale runs" extension; see docs/ARCHITECTURE.md): the
// design is split into Bands horizontal row bands, each band legalized by
// the FLEX engine as an independent pool job of a flex.Service, and the
// bands stitched back into one whole-die layout whose quality is measured
// against the original global placement.
type ShardedPoint struct {
	Name  string
	Cells int // movable cells
	Rows  int // die height in rows
	Bands int // effective band count (the plan may clamp the request)
	Halo  int
	Legal bool // the stitched whole-die layout checks clean
	// AveDis/MaxDis are measured on the stitched layout against the
	// original global placement — boundary clamping included, so sharded
	// quality is comparable to an unsharded run of the same design.
	AveDis float64
	MaxDis float64
	// ModeledMax is the slowest band's modeled engine seconds — the modeled
	// wall of a fully parallel sharded run; ModeledSum is the summed band
	// time, the serial cost the sharding amortizes. Their ratio is the
	// modeled shard parallelism.
	ModeledMax float64
	ModeledSum float64
	// Per-band observations, band order. BandCells counts each band's
	// movable cells (deterministic); BandWall and BandWait are the bands'
	// wall clocks and modeled-board queue times (scheduling-dependent —
	// stderr material, never rendered into the table).
	BandCells []int
	BandWall  []time.Duration
	BandWait  []time.Duration
	// Ops sums the FLEX engine's deterministic op counts across the bands
	// — the benchjson trajectory record for the sharded configuration.
	Ops benchjson.Ops
}

// Sharded runs the row-band sharding path over the (filtered, scaled)
// suite: per design, submit one FLEX job with Shards/ShardHalo set to a
// flex.Service, which plans and splits the design into bands, legalizes
// each band as its own pool job (holding a modeled board for its engine
// phase), stitches them, and measures the whole-die result. Designs run one
// after another so only one design's bands are resident at a time — the
// memory shape that lets paper-scale superblue runs fit. Superblue designs
// join the suite by explicit Options.Designs name.
func Sharded(opt Options, shards, halo int) ([]ShardedPoint, error) {
	opt = opt.withDefaults()
	if shards < 1 {
		return nil, fmt.Errorf("sharded: shard count must be >= 1, got %d", shards)
	}
	if halo < 0 {
		halo = 0
	}
	suite := opt.suite()
	if len(suite) == 0 {
		return nil, fmt.Errorf("sharded: empty suite")
	}
	svc := opt.newService()
	defer svc.Close()
	out := make([]ShardedPoint, 0, len(suite))
	for _, spec := range suite {
		l, err := opt.generate(spec, opt.Scale)
		if err != nil {
			return nil, err
		}
		res, err := submit(opt, svc, []flex.BatchJob{{
			Layout: l, Engine: flex.EngineFLEX, Priority: opt.Priority,
			Shards: shards, ShardHalo: shardHalo(halo),
		}})
		if err != nil {
			return nil, fmt.Errorf("sharded %s: %w", spec.Name, err)
		}
		stitched := res[0].Outcome
		pt := ShardedPoint{
			Name:   spec.Name,
			Cells:  len(l.MovableIDs()),
			Rows:   l.NumRows,
			Bands:  len(res[0].Shards),
			Halo:   halo,
			Legal:  stitched.Legal,
			AveDis: stitched.Metrics.AveDis,
			MaxDis: stitched.Metrics.MaxDis,
			// The stitched outcome's modeled time is its slowest band's.
			ModeledMax: stitched.ModeledSeconds,
			Ops:        benchjson.Ops{},
		}
		for _, band := range res[0].Shards {
			pt.ModeledSum += band.Outcome.ModeledSeconds
			pt.BandCells = append(pt.BandCells, len(band.Outcome.Layout.MovableIDs()))
			pt.BandWall = append(pt.BandWall, band.Wall)
			pt.BandWait = append(pt.BandWait, band.DeviceWait)
			pt.Ops.Add(band.Outcome.Ops)
		}
		if opt.Bench != nil {
			// ModeledSum is the record's time: the serial cost of all
			// bands, the quantity the op counts price. ModeledMax (the
			// parallel wall) is recoverable from per-run stderr.
			opt.Bench.Add(benchjson.Record{
				Design: pt.Name, Engine: "flex",
				Config: fmt.Sprintf("bands=%d halo=%d", pt.Bands, pt.Halo),
				Cells:  pt.Cells, Legal: pt.Legal,
				AveDis: pt.AveDis, MaxDis: pt.MaxDis,
				ModeledSeconds: pt.ModeledSum, Ops: pt.Ops,
			})
		}
		out = append(out, pt)
	}
	return out, nil
}

// RenderSharded renders the sharded runs. Only deterministic columns go to
// the table — per-band walls and waits are scheduling observations and stay
// on stderr.
func RenderSharded(pts []ShardedPoint) *report.Table {
	t := report.NewTable("Sharded full-scale runs: row-band decomposition, FLEX engine per band",
		"Design", "Cells", "Rows", "Bands", "Halo", "Legal",
		"AveDis", "MaxDis", "T_par(s)", "T_sum(s)", "Par")
	for _, p := range pts {
		par := 0.0
		if p.ModeledMax > 0 {
			par = p.ModeledSum / p.ModeledMax
		}
		t.Add(p.Name, fmt.Sprint(p.Cells), fmt.Sprint(p.Rows),
			fmt.Sprint(p.Bands), fmt.Sprint(p.Halo), fmt.Sprint(p.Legal),
			report.F(p.AveDis, 3), report.F(p.MaxDis, 3),
			report.Secs(p.ModeledMax), report.Secs(p.ModeledSum), report.X(par))
	}
	return t
}
