package experiments

import (
	"reflect"
	"strings"
	"testing"

	"github.com/flex-eda/flex"
	"github.com/flex-eda/flex/internal/benchjson"
)

// tiny keeps experiment tests fast: two contrasting designs at small scale.
var tiny = Options{
	Scale:   0.008,
	Designs: []string{"fft_a_md2", "pci_b_a_md2"},
}

func TestTable1ShapesHold(t *testing.T) {
	rows, err := Table1(tiny)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("rows = %d, want 2", len(rows))
	}
	for _, r := range rows {
		if !r.MGL.Legal || !r.Date.Legal || !r.Ispd.Legal || !r.Flex.Legal {
			t.Fatalf("%s: some engine produced an illegal layout: %+v", r.Name, r)
		}
		// The headline shape: FLEX is the fastest engine.
		if r.AccT <= 1 || r.AccD <= 1 || r.AccI <= 1 {
			t.Fatalf("%s: FLEX not fastest: AccT=%v AccD=%v AccI=%v", r.Name, r.AccT, r.AccD, r.AccI)
		}
		// The analytical baseline is the slowest of the comparisons.
		if r.AccI < r.AccT {
			t.Logf("%s: note AccI %.2f < AccT %.2f (paper usually has AccI largest)", r.Name, r.AccI, r.AccT)
		}
		// Quality sanity: every engine within a plausible band.
		for _, c := range []EngineCell{r.MGL, r.Date, r.Ispd, r.Flex} {
			if c.AveDis <= 0 || c.AveDis > 10 {
				t.Fatalf("%s: implausible AveDis %v", r.Name, c.AveDis)
			}
		}
	}
	out := RenderTable1(rows).String()
	if !strings.Contains(out, "Acc(T)") || !strings.Contains(out, "Average") {
		t.Fatalf("rendered table missing expected pieces:\n%s", out)
	}
}

// TestTable1OpsMatchServicePath pins the one op-key list: the Table1
// driver calls the engines directly while the Service-driven drivers read
// flex.Outcome.Ops, and both must record the same counts for the same run.
func TestTable1OpsMatchServicePath(t *testing.T) {
	opt := tiny
	opt.Bench = benchjson.New(benchjson.Env{}, benchjson.Config{}).Experiment("table1")
	if _, err := Table1(opt); err != nil {
		t.Fatal(err)
	}
	engines := map[string]flex.Engine{
		"mgl-mt": flex.EngineMGLMT, "gpu": flex.EngineGPU,
		"analytical": flex.EngineAnalytical, "flex": flex.EngineFLEX,
	}
	compared := 0
	for _, spec := range opt.withDefaults().suite() {
		l, err := opt.generate(spec, opt.Scale)
		if err != nil {
			t.Fatal(err)
		}
		for _, rec := range opt.Bench.Records {
			if rec.Design != spec.Name {
				continue
			}
			out, err := flex.Legalize(l, engines[rec.Engine])
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(map[string]int64(rec.Ops), out.Ops) {
				t.Fatalf("%s/%s: table1 ops %v, Outcome.Ops %v", spec.Name, rec.Engine, rec.Ops, out.Ops)
			}
			compared++
		}
	}
	if compared != 2*len(engines) {
		t.Fatalf("compared %d records, want %d", compared, 2*len(engines))
	}
}

func TestTable2Render(t *testing.T) {
	out := Table2().String()
	for _, want := range []string{"59837", "86632", "871680", "Available"} {
		if !strings.Contains(out, want) {
			t.Fatalf("table 2 missing %q:\n%s", want, out)
		}
	}
}

func TestFig2aSaturates(t *testing.T) {
	pts, err := Fig2a(Options{Scale: 0.01, Designs: []string{"des_perf_b_md1"}})
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != 5 || pts[0].Threads != 1 {
		t.Fatalf("unexpected points: %+v", pts)
	}
	if pts[0].Speedup != 1 {
		t.Fatalf("baseline speedup %v", pts[0].Speedup)
	}
	// More threads never slower in the model; saturation: 10T gains little
	// over 8T (the paper's Fig. 2(a) plateau).
	s8, s10 := pts[3].Speedup, pts[4].Speedup
	if s8 < 1.2 {
		t.Fatalf("8T speedup %v too small", s8)
	}
	if s10 > s8*1.15 {
		t.Fatalf("no saturation: 8T=%v 10T=%v", s8, s10)
	}
	if got := RenderFig2a(pts).String(); !strings.Contains(got, "8T") {
		t.Fatal("render missing 8T")
	}
}

func TestFig2bSyncShare(t *testing.T) {
	pts, err := Fig2b(Options{Scale: 0.01})
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != 2 {
		t.Fatalf("want 2 superblue points, got %d", len(pts))
	}
	for _, p := range pts {
		if p.SyncShare < 0.05 || p.SyncShare > 0.8 {
			t.Fatalf("%s: sync share %v implausible", p.Name, p.SyncShare)
		}
	}
	_ = RenderFig2b(pts).String()
}

func TestFig2cParallelismGap(t *testing.T) {
	pts, err := Fig2c(Options{Scale: 0.01})
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range pts {
		if p.MaxBatch <= 0 {
			t.Fatalf("%s: no parallelism measured", p.Name)
		}
		if p.MaxBatch >= p.CUDACores {
			t.Fatalf("%s: parallelism %d not below core count %d", p.Name, p.MaxBatch, p.CUDACores)
		}
	}
	_ = RenderFig2c(pts).String()
}

func TestFig2gShiftDominates(t *testing.T) {
	pts, err := Fig2g(tiny)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range pts {
		if p.ShiftShare < 0.5 {
			t.Fatalf("%s: shift share %v below 50%%", p.Name, p.ShiftShare)
		}
	}
	_ = RenderFig2g(pts).String()
}

func TestFig6gSortOverheadSmall(t *testing.T) {
	pts, err := Fig6g(tiny)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range pts {
		if p.SortShare <= 0 || p.SortShare > 0.3 {
			t.Fatalf("%s: sort share %v outside (0, 0.3]", p.Name, p.SortShare)
		}
		if p.OrigPassesAvg < p.SACSPassesAvg {
			t.Fatalf("%s: original passes %v below SACS %v", p.Name, p.OrigPassesAvg, p.SACSPassesAvg)
		}
	}
	_ = RenderFig6g(pts).String()
}

func TestFig8LadderBands(t *testing.T) {
	pts, err := Fig8(tiny)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range pts {
		if !(p.SACS > 1 && p.MG > p.SACS && p.TwoPE > p.MG) {
			t.Fatalf("%s: ladder not monotone: %+v", p.Name, p)
		}
		if p.SACS < 1.5 || p.SACS > 4.5 {
			t.Fatalf("%s: SACS step %v outside [1.5, 4.5]", p.Name, p.SACS)
		}
		if r := p.TwoPE / p.MG; r < 1.3 || r > 2.0 {
			t.Fatalf("%s: 2-PE step %v outside [1.3, 2.0]", p.Name, r)
		}
	}
	_ = RenderFig8(pts).String()
}

func TestFig9TallCellCorrelation(t *testing.T) {
	pts, err := Fig9(Options{
		Scale:   0.008,
		Designs: []string{"des_perf_a_md1", "pci_b_a_md2"},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != 2 {
		t.Fatalf("want 2 points, got %d", len(pts))
	}
	var md1, md2 SACSLadderPoint
	for _, p := range pts {
		if p.Name == "des_perf_a_md1" {
			md1 = p
		} else {
			md2 = p
		}
	}
	// md1 has no >3-row cells: ImpBW adds nothing over Arch.
	if md1.TallFrac != 0 {
		t.Fatalf("md1 tall fraction %v, want 0", md1.TallFrac)
	}
	if md1.ImpBW > md1.Arch*1.001 {
		t.Fatalf("md1: ImpBW %v gained over Arch %v without tall cells", md1.ImpBW, md1.Arch)
	}
	// pci_b_a_md2 has the largest tall share: ImpBW must gain visibly.
	if md2.ImpBW <= md2.Arch {
		t.Fatalf("pci_b_a_md2: ImpBW %v did not gain over Arch %v", md2.ImpBW, md2.Arch)
	}
	for _, p := range pts {
		if !(p.Arch > 1 && p.Paral > p.ImpBW) {
			t.Fatalf("%s: ladder not monotone: %+v", p.Name, p)
		}
	}
	_ = RenderFig9(pts).String()
}

func TestFig10AssignmentRatio(t *testing.T) {
	pts, err := Fig10(tiny)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range pts {
		if p.Ratio <= 1 {
			t.Fatalf("%s: d-only not faster (ratio %v)", p.Name, p.Ratio)
		}
		if p.Ratio > 2.5 {
			t.Fatalf("%s: ratio %v implausibly large", p.Name, p.Ratio)
		}
	}
	_ = RenderFig10(pts).String()
}
