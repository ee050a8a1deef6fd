package flex_test

import (
	"bytes"
	"context"
	"math/rand"
	"testing"
	"time"

	flex "github.com/flex-eda/flex"
)

// submitOne runs one job on svc and returns its outcome, failing the test
// on any error.
func submitOne(t *testing.T, svc *flex.Service, job flex.BatchJob) *flex.Outcome {
	t.Helper()
	sum, err := svc.Submit(context.Background(), []flex.BatchJob{job}, flex.SubmitOptions{})
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	r := sum.Results[0]
	if r.Err != nil {
		t.Fatalf("job failed: %v", r.Err)
	}
	return r.Outcome
}

// inHaloEdits builds a deterministic batch of n cell moves that each stay
// within maxDY rows of the cell's current band — the edits the incremental
// path must serve by splicing.
func inHaloEdits(t *testing.T, l *flex.Layout, n, maxDY int, rng *rand.Rand) []flex.Edit {
	t.Helper()
	var movable []int
	for i, c := range l.Cells {
		if !c.Fixed && c.Parity == 0 {
			movable = append(movable, i)
		}
	}
	if len(movable) == 0 {
		t.Fatal("layout has no movable cells")
	}
	edits := make([]flex.Edit, 0, n)
	used := make(map[string]bool)
	for len(edits) < n {
		c := l.Cells[movable[rng.Intn(len(movable))]]
		if used[c.Name] {
			continue
		}
		gy := c.GY + rng.Intn(2*maxDY+1) - maxDY
		if gy < 0 || gy+c.H > l.NumRows {
			continue
		}
		gx := rng.Intn(l.NumSitesX - c.W + 1)
		used[c.Name] = true
		edits = append(edits, flex.Edit{Op: flex.EditMove, Cell: c.Name, GX: gx, GY: gy})
	}
	return edits
}

// TestIncrementalByteIdenticalToFullRun is the tentpole property test: for
// randomized in-halo edit batches, the incremental result (cached base,
// spliced clean bands) must be byte-identical to a full re-run of the
// edited layout, across worker and board configurations, cold and warm.
// Out-of-halo edits must take the fallback path — observed via the
// Fallbacks stat — and still match.
func TestIncrementalByteIdenticalToFullRun(t *testing.T) {
	base, err := flex.GenerateCustom(600, 0.6, 33)
	if err != nil {
		t.Fatal(err)
	}
	const shards = 4
	for _, workers := range []int{1, 4} {
		for _, fpgas := range []int{1, 2} {
			rng := rand.New(rand.NewSource(7))
			edits := inHaloEdits(t, base, 5, 2, rng)

			// Reference: a cacheless service legalizes the edited layout in
			// full (this also exercises edits without an outcome cache).
			ref := flex.NewService(flex.WithWorkers(workers), flex.WithFPGAs(fpgas), flex.WithShards(shards))
			refOut := submitOne(t, ref, flex.BatchJob{Layout: base, Edits: edits, Engine: flex.EngineFLEX})
			ref.Close()
			want := encodeLayout(t, refOut.Layout)
			if refOut.InputHash != "" {
				t.Fatalf("workers=%d fpgas=%d: cacheless outcome reports InputHash %q", workers, fpgas, refOut.InputHash)
			}

			svc := flex.NewService(flex.WithWorkers(workers), flex.WithFPGAs(fpgas),
				flex.WithShards(shards), flex.WithOutcomeCacheBytes(64<<20))

			// Cold cache: the eco job cannot splice (base outcome unknown)
			// and must fall back to a full run that still matches.
			coldOut := submitOne(t, svc, flex.BatchJob{Layout: base, Edits: edits, Engine: flex.EngineFLEX})
			if got := encodeLayout(t, coldOut.Layout); !bytes.Equal(want, got) {
				t.Fatalf("workers=%d fpgas=%d: cold eco result differs from full re-run", workers, fpgas)
			}
			if st := svc.Stats(); st.Fallbacks != 1 || st.Incremental != 0 {
				t.Fatalf("workers=%d fpgas=%d: cold stats fallbacks=%d incremental=%d, want 1/0",
					workers, fpgas, st.Fallbacks, st.Incremental)
			}

			// Legalize the base so its outcome is cached, then edit against
			// it by content hash: the incremental path must splice.
			baseOut := submitOne(t, svc, flex.BatchJob{Layout: base, Engine: flex.EngineFLEX})
			if baseOut.InputHash != flex.LayoutHash(base) {
				t.Fatalf("workers=%d fpgas=%d: base InputHash %q, want %q",
					workers, fpgas, baseOut.InputHash, flex.LayoutHash(base))
			}
			incOut := submitOne(t, svc, flex.BatchJob{BaseHash: baseOut.InputHash, Edits: edits, Engine: flex.EngineFLEX})
			if got := encodeLayout(t, incOut.Layout); !bytes.Equal(want, got) {
				t.Fatalf("workers=%d fpgas=%d: incremental result differs from full re-run", workers, fpgas)
			}
			if st := svc.Stats(); st.Incremental != 1 {
				t.Fatalf("workers=%d fpgas=%d: incremental=%d after in-halo edit, want 1", workers, fpgas, st.Incremental)
			}
			if incOut.Legal != refOut.Legal || incOut.Metrics != refOut.Metrics ||
				incOut.ModeledSeconds != refOut.ModeledSeconds {
				t.Fatalf("workers=%d fpgas=%d: incremental outcome fields differ from full re-run", workers, fpgas)
			}

			// Warm repeat: the identical request is an exact outcome hit.
			before := svc.Stats().OutcomeHits
			warmOut := submitOne(t, svc, flex.BatchJob{BaseHash: baseOut.InputHash, Edits: edits, Engine: flex.EngineFLEX})
			if got := encodeLayout(t, warmOut.Layout); !bytes.Equal(want, got) {
				t.Fatalf("workers=%d fpgas=%d: warm repeat differs from full re-run", workers, fpgas)
			}
			if st := svc.Stats(); st.OutcomeHits <= before {
				t.Fatalf("workers=%d fpgas=%d: warm repeat did not hit the outcome cache", workers, fpgas)
			}

			// Out-of-halo edit: must fall back (stat-asserted) and match its
			// own full re-run.
			far := farEdit(t, base)
			ref2 := flex.NewService(flex.WithWorkers(workers), flex.WithFPGAs(fpgas), flex.WithShards(shards))
			farWant := encodeLayout(t, submitOne(t, ref2, flex.BatchJob{Layout: base, Edits: far, Engine: flex.EngineFLEX}).Layout)
			ref2.Close()
			fb := svc.Stats().Fallbacks
			farOut := submitOne(t, svc, flex.BatchJob{BaseHash: baseOut.InputHash, Edits: far, Engine: flex.EngineFLEX})
			if got := encodeLayout(t, farOut.Layout); !bytes.Equal(farWant, got) {
				t.Fatalf("workers=%d fpgas=%d: out-of-halo result differs from full re-run", workers, fpgas)
			}
			if st := svc.Stats(); st.Fallbacks != fb+1 {
				t.Fatalf("workers=%d fpgas=%d: out-of-halo edit did not take the fallback path (fallbacks %d -> %d)",
					workers, fpgas, fb, st.Fallbacks)
			}
			svc.Close()
		}
	}
}

// farEdit builds one move that ripples far past any halo: the first
// movable cell jumps half the die away.
func farEdit(t *testing.T, l *flex.Layout) []flex.Edit {
	t.Helper()
	for _, c := range l.Cells {
		if c.Fixed || c.Parity != 0 {
			continue
		}
		gy := c.GY + l.NumRows/2
		if gy+c.H > l.NumRows {
			gy = c.GY - l.NumRows/2
		}
		if gy < 0 || gy+c.H > l.NumRows {
			continue
		}
		return []flex.Edit{{Op: flex.EditMove, Cell: c.Name, GX: c.GX, GY: gy}}
	}
	t.Fatal("no cell admits an out-of-halo move")
	return nil
}

// TestBaseHashRequiresOutcomeCache: naming a base by hash on a service
// without an outcome cache must fail the job, not silently full-run.
func TestBaseHashRequiresOutcomeCache(t *testing.T) {
	svc := flex.NewService(flex.WithWorkers(1))
	defer svc.Close()
	sum, err := svc.Submit(context.Background(),
		[]flex.BatchJob{{BaseHash: "deadbeef", Engine: flex.EngineFLEX}}, flex.SubmitOptions{})
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	if sum.Results[0].Err == nil {
		t.Fatal("BaseHash without an outcome cache should fail the job")
	}
}

// TestUnknownBaseHashFailsJob: an outcome-cache service must reject a base
// hash it has never seen rather than guess.
func TestUnknownBaseHashFailsJob(t *testing.T) {
	svc := flex.NewService(flex.WithWorkers(1), flex.WithOutcomeCacheBytes(1<<20))
	defer svc.Close()
	sum, err := svc.Submit(context.Background(),
		[]flex.BatchJob{{BaseHash: "deadbeef", Engine: flex.EngineFLEX}}, flex.SubmitOptions{})
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	if sum.Results[0].Err == nil {
		t.Fatal("unknown base hash should fail the job")
	}
}

// TestPlainOutcomeCacheServesRepeats: on the unsharded path a repeated
// explicit-layout job is served from the outcome cache — byte-identical,
// with the hit counted.
func TestPlainOutcomeCacheServesRepeats(t *testing.T) {
	l, err := flex.GenerateCustom(400, 0.5, 9)
	if err != nil {
		t.Fatal(err)
	}
	svc := flex.NewService(flex.WithWorkers(2), flex.WithOutcomeCacheBytes(32<<20))
	defer svc.Close()
	first := submitOne(t, svc, flex.BatchJob{Layout: l, Engine: flex.EngineFLEX})
	if first.InputHash != flex.LayoutHash(l) {
		t.Fatalf("InputHash %q, want %q", first.InputHash, flex.LayoutHash(l))
	}
	second := submitOne(t, svc, flex.BatchJob{Layout: l, Engine: flex.EngineFLEX})
	if !bytes.Equal(encodeLayout(t, first.Layout), encodeLayout(t, second.Layout)) {
		t.Fatal("cached repeat differs from first run")
	}
	st := svc.Stats()
	if st.OutcomeHits != 1 || st.OutcomeMisses != 1 {
		t.Fatalf("outcome hits/misses = %d/%d, want 1/1", st.OutcomeHits, st.OutcomeMisses)
	}
	// The cached layout must be cloned per serve: mutating one result must
	// not corrupt the cache.
	second.Layout.Cells[0].X++
	third := submitOne(t, svc, flex.BatchJob{Layout: l, Engine: flex.EngineFLEX})
	if !bytes.Equal(encodeLayout(t, first.Layout), encodeLayout(t, third.Layout)) {
		t.Fatal("mutating a served result corrupted the cache")
	}
}

// TestOutcomeOpsOnlyFromEngineRuns pins where Outcome.Ops comes from: every
// engine run fills it, an outcome the outcome cache served carries none,
// and a sharded job carries its counts per band, not on the stitched
// outcome — the signal the flexbench eco driver counts re-solved bands by.
func TestOutcomeOpsOnlyFromEngineRuns(t *testing.T) {
	l, err := flex.GenerateCustom(300, 0.5, 4)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range []flex.Engine{flex.EngineFLEX, flex.EngineMGL, flex.EngineMGLMT, flex.EngineGPU, flex.EngineAnalytical} {
		out, err := flex.Legalize(l, e)
		if err != nil {
			t.Fatal(err)
		}
		if _, ok := out.Ops["failed"]; !ok || len(out.Ops) == 0 {
			t.Fatalf("%s: engine run carries no ops: %v", e, out.Ops)
		}
	}

	svc := flex.NewService(flex.WithWorkers(2), flex.WithOutcomeCacheBytes(32<<20))
	defer svc.Close()
	if first := submitOne(t, svc, flex.BatchJob{Layout: l, Engine: flex.EngineFLEX}); first.Ops == nil {
		t.Fatal("first (engine) run on a caching service lost its ops")
	}
	if repeat := submitOne(t, svc, flex.BatchJob{Layout: l, Engine: flex.EngineFLEX}); repeat.Ops != nil {
		t.Fatalf("cache-served repeat carries ops: %v", repeat.Ops)
	}

	sum, err := svc.Submit(context.Background(), []flex.BatchJob{{Layout: l, Engine: flex.EngineFLEX, Shards: 3}}, flex.SubmitOptions{})
	if err != nil || sum.Results[0].Err != nil {
		t.Fatalf("sharded job: %v / %v", err, sum.Results[0].Err)
	}
	r := sum.Results[0]
	if r.Outcome.Ops != nil {
		t.Fatalf("stitched outcome carries ops: %v", r.Outcome.Ops)
	}
	var reconfigs int
	var wait time.Duration
	for _, band := range r.Shards {
		if band.Outcome.Ops == nil {
			t.Fatalf("band %d engine run carries no ops", band.Index)
		}
		reconfigs += band.DeviceReconfigs
		wait += band.SchedWait
	}
	// The job's queue and board counters sum its bands'.
	if reconfigs < 1 || r.DeviceReconfigs != reconfigs || r.SchedWait != wait {
		t.Fatalf("job reconfigs %d / sched wait %v, bands sum to %d / %v",
			r.DeviceReconfigs, r.SchedWait, reconfigs, wait)
	}
}
