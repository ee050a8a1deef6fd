package main

import (
	"testing"

	flex "github.com/flex-eda/flex"
)

// TestReplayFidelity is the gate on the engine-phase replay: on designs
// that differ in density and tall-cell share, the replay must produce the
// same layout bytes as flex.LegalizeWith(EngineFLEX) and the same FOP,
// shift and placement counters as the engine. The phase metrics are only
// meaningful while this holds.
func TestReplayFidelity(t *testing.T) {
	for _, d := range []designRef{
		{"fft_a_md2", 0.02},
		{"pci_b_a_md2", 0.02},
		{"des_perf_1", 0.01},
		{"edit_dist_a_md3", 0.01},
	} {
		l, err := flex.Generate(d.name, d.scale)
		if err != nil {
			t.Fatal(err)
		}
		e, err := runEngine(l)
		if err != nil {
			t.Fatal(err)
		}
		if e.Mismatch != "" {
			t.Errorf("%s@%g: %s", d.name, d.scale, e.Mismatch)
		}
		if e.Replay.Placed == 0 || e.Replay.FOPCalls < e.Replay.Placed {
			t.Errorf("%s@%g: implausible replay counters: %d placed, %d FOP calls", d.name, d.scale, e.Replay.Placed, e.Replay.FOPCalls)
		}
	}
}

// TestReplayDetectsDivergence checks that the gate is not vacuous: a
// replay whose output differs from the engine's is reported.
func TestReplayDetectsDivergence(t *testing.T) {
	l, err := flex.Generate("fft_a_md2", 0.01)
	if err != nil {
		t.Fatal(err)
	}
	e, err := runEngine(l)
	if err != nil {
		t.Fatal(err)
	}
	r := replayFLEX(l)
	r.Layout.Cells[r.Layout.MovableIDs()[0]].X++
	if fidelity(e.Core.Layout, e.Core, r) == "" {
		t.Fatal("a moved cell was not reported")
	}
	r = replayFLEX(l)
	r.FOP.InsertionPoints++
	if fidelity(e.Core.Layout, e.Core, r) == "" {
		t.Fatal("a changed FOP counter was not reported")
	}
}
