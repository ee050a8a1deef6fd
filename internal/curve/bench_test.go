package curve

import (
	"math/rand"
	"testing"
)

// benchHinges builds a deterministic hinge population shaped like the FOP
// emission: one V hinge for the target plus 1–2 push hinges per chained
// cell, positions clustered around the feasible interval.
func benchHinges(n int) ([]Breakpoint, int, int) {
	rng := rand.New(rand.NewSource(42))
	bps := make([]Breakpoint, 0, n)
	bps = append(bps, VHinge(500, 12))
	for len(bps) < n {
		cur := 400 + rng.Intn(200)
		g := cur + rng.Intn(41) - 20
		thresh := cur + rng.Intn(21) - 10
		if rng.Intn(2) == 0 {
			bps = append(bps, HingesForPush(cur, g, thresh)...)
		} else {
			bps = append(bps, HingesForPushLeft(cur, g, thresh)...)
		}
	}
	return bps[:n], 420, 580
}

func benchEval(b *testing.B, n int, eval func([]Breakpoint, int, int, *Stats) Result) {
	bps, lo, hi := benchHinges(n)
	var st Stats
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res := eval(bps, lo, hi, &st)
		if !res.Feasible {
			b.Fatal("infeasible")
		}
	}
}

func BenchmarkEvalStreamed64(b *testing.B)  { benchEval(b, 64, EvalStreamed) }
func BenchmarkEvalStreamed256(b *testing.B) { benchEval(b, 256, EvalStreamed) }
func BenchmarkEvalOriginal64(b *testing.B)  { benchEval(b, 64, EvalOriginal) }
func BenchmarkEvalOriginal256(b *testing.B) { benchEval(b, 256, EvalOriginal) }

// The reused-Evaluator variants are what the FOP hot loop actually runs;
// after warm-up they are allocation-free.
func benchEvaluator(b *testing.B, n int) {
	bps, lo, hi := benchHinges(n)
	var e Evaluator
	var st Stats
	e.Streamed(bps, lo, hi, &st)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if res := e.Streamed(bps, lo, hi, &st); !res.Feasible {
			b.Fatal("infeasible")
		}
	}
}

func BenchmarkEvaluatorStreamed64(b *testing.B)  { benchEvaluator(b, 64) }
func BenchmarkEvaluatorStreamed256(b *testing.B) { benchEvaluator(b, 256) }

// fopShapedHinges builds the hinge list fop.Best emits for one insertion
// point of its benchmark region: a packed row (widths 3–10 sites, gaps of
// 0–2, global positions within ±4 of the current ones), a 6-site target
// inserted mid-row, every cell on each side chained to it. The list is the
// target's V hinge, then the left chain in ascending threshold order, then
// the right chain likewise, each push contributing one or two hinges: a
// few near-sorted runs with second hinges interleaved, unlike benchHinges.
func fopShapedHinges() ([]Breakpoint, int, int) {
	const width, tw = 200, 6
	rng := rand.New(rand.NewSource(7))
	type cell struct{ x, gx, w int }
	var row []cell
	for x := rng.Intn(4); x < width-12; {
		w := 3 + rng.Intn(8)
		row = append(row, cell{x, x + rng.Intn(9) - 4, w})
		x += w + rng.Intn(3)
	}
	mid := len(row) / 2
	bps := []Breakpoint{VHinge(width/2, 0)}
	// Left chain, walked from the far end: the near cell's offset is its
	// width, and each farther cell adds its own.
	off := make([]int, mid)
	for k, o := mid-1, 0; k >= 0; k-- {
		o += row[k].w
		off[k] = o
	}
	for k := 0; k < mid; k++ {
		c := row[k]
		bps = AppendHingesForPushLeft(bps, c.x, c.gx, c.x+off[k])
	}
	for k, o := mid, tw; k < len(row); k++ {
		c := row[k]
		bps = AppendHingesForPush(bps, c.x, c.gx, c.x-o)
		o += c.w
	}
	return bps, row[mid-1].x + row[mid-1].w, row[mid].x
}

// BenchmarkEvaluatorFOPShaped is the reused-Evaluator pipeline on the
// hinge shape the FOP loop actually produces; the random 64/256 variants
// stay as the sorter's worst-case guard.
func BenchmarkEvaluatorFOPShaped(b *testing.B) {
	bps, lo, hi := fopShapedHinges()
	var e Evaluator
	var st Stats
	e.Streamed(bps, lo, hi, &st)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if res := e.Streamed(bps, lo, hi, &st); !res.Feasible {
			b.Fatal("infeasible")
		}
	}
}
