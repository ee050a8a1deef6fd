package experiments

import (
	"testing"

	"github.com/flex-eda/flex/internal/batch"
	"github.com/flex-eda/flex/internal/benchjson"
)

// TestEcoServesEditsIncrementally runs the edit stream through the
// service path: every interior edit must re-solve exactly one band, match
// its full re-run, and price below it. At one worker and one board the
// board accounting is exact: the base run and every full re-run acquire
// once per band, every incremental run once, and each submitted job
// programs the board once however many bands it holds it for.
func TestEcoServesEditsIncrementally(t *testing.T) {
	const bands = 4
	var st batch.Stats
	bench := benchjson.New(benchjson.Env{}, benchjson.Config{}).Experiment("eco")
	opt := Options{Scale: 0.008, Designs: []string{"fft_a_md2"}, Workers: 1, FPGAs: 1, Stats: &st, Bench: bench}
	pts, err := Eco(opt, bands, 1, 4)
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != 1 {
		t.Fatalf("got %d points, want 1", len(pts))
	}
	p := pts[0]
	if !p.Match || p.Edits == 0 || p.Bands != bands {
		t.Fatalf("edit stream not served: %+v", p)
	}
	if p.Dirty != p.Edits {
		t.Fatalf("%d bands re-solved for %d interior edits, want one each", p.Dirty, p.Edits)
	}
	if p.IncModeled <= 0 || p.FullModeled <= p.IncModeled {
		t.Fatalf("modeled costs inconsistent: full %v inc %v", p.FullModeled, p.IncModeled)
	}
	if len(p.Ops) == 0 || p.Ops["placed"] == 0 {
		t.Fatalf("incremental ops not collected: %v", p.Ops)
	}
	if len(bench.Records) != 1 || !bench.Records[0].Legal {
		t.Fatalf("bench record: %+v", bench.Records)
	}
	if want := bands + p.Edits*(1+bands); st.DeviceAcquires != want {
		t.Fatalf("device acquires = %d, want %d", st.DeviceAcquires, want)
	}
	if want := 1 + 2*p.Edits; st.DeviceReconfigs != want {
		t.Fatalf("device reconfigs = %d, want %d (one per submitted job)", st.DeviceReconfigs, want)
	}
}

func TestEcoRejectsBadArguments(t *testing.T) {
	if _, err := Eco(tiny, 0, 1, 4); err == nil {
		t.Fatal("Eco accepted 0 bands")
	}
	if _, err := Eco(tiny, 4, 1, 0); err == nil {
		t.Fatal("Eco accepted 0 edits")
	}
}
