package curve

import (
	"cmp"
	"math/rand"
	"slices"
	"testing"
)

// TestSegmentSlopeReconstruction verifies the slope identity the FOP
// pipeline relies on: between adjacent merged breakpoints, the summed
// curve's slope equals (cumulative right slopes left of the segment) +
// (cumulative left slopes right of it).
func TestSegmentSlopeReconstruction(t *testing.T) {
	r := rand.New(rand.NewSource(21))
	for iter := 0; iter < 200; iter++ {
		bps := randomHinges(r, 1+r.Intn(10))
		// Collect distinct sorted positions.
		seen := map[int]bool{}
		for _, b := range bps {
			seen[b.X] = true
		}
		xs := make([]int, 0, len(seen))
		for x := range seen {
			xs = append(xs, x)
		}
		for i := 0; i < len(xs); i++ {
			for j := i + 1; j < len(xs); j++ {
				if xs[j] < xs[i] {
					xs[i], xs[j] = xs[j], xs[i]
				}
			}
		}
		for k := 0; k+1 < len(xs); k++ {
			a, b := xs[k], xs[k+1]
			if b-a < 2 {
				continue
			}
			// Measured slope from two interior points.
			m := BruteForce(bps, a+1) - BruteForce(bps, a)
			// Reconstructed slope from the breakpoint representation.
			sum := 0
			for _, bp := range bps {
				if bp.X <= a {
					sum += bp.SR
				} else {
					sum += bp.SL
				}
			}
			if m != sum {
				t.Fatalf("iter %d: segment (%d,%d): measured slope %d, reconstructed %d",
					iter, a, b, m, sum)
			}
		}
	}
}

// TestEvalTranslationInvariance: shifting every hinge and the interval by a
// constant shifts the argmin by the same constant and keeps the value.
func TestEvalTranslationInvariance(t *testing.T) {
	r := rand.New(rand.NewSource(33))
	for iter := 0; iter < 200; iter++ {
		bps := randomHinges(r, 1+r.Intn(8))
		lo := -40
		hi := 40
		d := r.Intn(100) - 50
		shifted := make([]Breakpoint, len(bps))
		for i, b := range bps {
			b.X += d
			shifted[i] = b
		}
		a := EvalStreamed(bps, lo, hi, nil)
		b := EvalStreamed(shifted, lo+d, hi+d, nil)
		if a.BestVal != b.BestVal || a.BestX+d != b.BestX {
			t.Fatalf("iter %d: translation broke evaluation: %+v vs %+v (d=%d)", iter, a, b, d)
		}
	}
}

// TestEvalAdditivity: evaluating the union of two hinge sets at a point
// equals the sum of the individual evaluations at that point.
func TestEvalAdditivity(t *testing.T) {
	r := rand.New(rand.NewSource(44))
	for iter := 0; iter < 300; iter++ {
		a := randomHinges(r, 1+r.Intn(6))
		b := randomHinges(r, 1+r.Intn(6))
		x := r.Intn(200) - 100
		all := append(append([]Breakpoint{}, a...), b...)
		if BruteForce(all, x) != BruteForce(a, x)+BruteForce(b, x) {
			t.Fatalf("iter %d: additivity broken", iter)
		}
	}
}

// refSortAndMerge is the comparison-sort sortAndMerge that sortByX
// replaced: slices.SortFunc, then the equal-position merge.
func refSortAndMerge(bps []Breakpoint, lo, hi int, st *Stats) []merged {
	xs := append(append([]Breakpoint{}, bps...), Breakpoint{X: lo}, Breakpoint{X: hi})
	st.RawBps += len(xs)
	slices.SortFunc(xs, func(a, b Breakpoint) int { return cmp.Compare(a.X, b.X) })
	if n := len(xs); n > 1 {
		logn := 0
		for v := n; v > 1; v >>= 1 {
			logn++
		}
		st.SortOps += n * logn
	}
	var out []merged
	for _, b := range xs {
		if len(out) > 0 && out[len(out)-1].x == b.X {
			out[len(out)-1].sl += b.SL
			out[len(out)-1].sr += b.SR
		} else {
			out = append(out, merged{x: b.X, sl: b.SL, sr: b.SR})
		}
	}
	st.MergedBps += len(out)
	return out
}

// TestSortMatchesComparisonSort: on the input shapes that stress a
// natural-run merge sort, both pipelines return the Result and Stats of
// the same pipeline fed by slices.SortFunc. One Evaluator serves every
// case, so its scratch is reused across sizes as in the FOP loop.
func TestSortMatchesComparisonSort(t *testing.T) {
	r := rand.New(rand.NewSource(1313))
	shapes := map[string]func(i, n int) int{
		"sorted":   func(i, n int) int { return i },
		"reversed": func(i, n int) int { return n - i },
		"equal":    func(i, n int) int { return 7 },
		"sawtooth": func(i, n int) int { return i % 5 },
		"runs":     func(i, n int) int { return (i%37)*3 - i/37 },
		"downruns": func(i, n int) int { return i/37 - (i%37)*3 },
		"random":   func(i, n int) int { return r.Intn(2*n+1) - n },
	}
	names := make([]string, 0, len(shapes))
	for name := range shapes {
		names = append(names, name)
	}
	slices.Sort(names)
	var e Evaluator
	for _, n := range []int{0, 1, 2, 3, 15, 16, 17, 31, 33, 100, 257, 1000, 4096} {
		for _, name := range names {
			bps := make([]Breakpoint, n)
			for i := range bps {
				bps[i] = Breakpoint{X: shapes[name](i, n), SL: r.Intn(5) - 2, SR: r.Intn(5) - 2, Base: r.Intn(50)}
			}
			lo, hi := -n/2, n/2+3
			for _, pipe := range []struct {
				name string
				run  func([]Breakpoint, int, int, *Stats) Result
				tail func(int, []merged, int, int, *Stats) Result
			}{
				{"streamed", e.Streamed, e.streamed},
				{"original", e.Original, e.original},
			} {
				var got, want Stats
				res := pipe.run(bps, lo, hi, &got)
				ref := pipe.tail(SumBase(bps), refSortAndMerge(bps, lo, hi, &want), lo, hi, &want)
				if res != ref || got != want {
					t.Fatalf("%s n=%d %s: %+v %+v, comparison sort %+v %+v", name, n, pipe.name, res, got, ref, want)
				}
			}
		}
	}
}

// TestEvaluatorAllocationFree: a warmed Evaluator sorts, merges and
// traverses without allocating.
func TestEvaluatorAllocationFree(t *testing.T) {
	bps, lo, hi := benchHinges(256)
	var e Evaluator
	var st Stats
	e.Streamed(bps, lo, hi, &st)
	if n := testing.AllocsPerRun(20, func() { e.Streamed(bps, lo, hi, &st) }); n != 0 {
		t.Fatalf("Streamed allocates %.1f times per call, want 0", n)
	}
}
