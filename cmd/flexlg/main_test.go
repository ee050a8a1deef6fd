package main

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	flex "github.com/flex-eda/flex"
)

// TestParseEnginesGolden pins parseEngines' behaviour as rendered strings:
// empty entries (trailing or doubled commas) are skipped, duplicates run
// once, "all" expands with FLEX first, and an unknown name is rejected with
// its position in the list.
func TestParseEnginesGolden(t *testing.T) {
	render := func(input string) string {
		engines, names, err := parseEngines(input)
		if err != nil {
			return "error: " + err.Error()
		}
		parts := make([]string, len(engines))
		for i, e := range engines {
			parts[i] = fmt.Sprintf("%s=%d", names[i], int(e))
		}
		return strings.Join(parts, " ")
	}
	golden := []struct {
		input string
		want  string
	}{
		{"flex", "flex=0"},
		{"all", "flex=0 mgl=1 mgl-mt=2 gpu=3 analytical=4"},
		{" all ", "flex=0 mgl=1 mgl-mt=2 gpu=3 analytical=4"},
		{"flex,mgl", "flex=0 mgl=1"},
		{"mgl, flex", "mgl=1 flex=0"},
		// The trailing comma that used to die with `unknown engine ""`.
		{"flex,", "flex=0"},
		{",flex", "flex=0"},
		{"flex,,mgl", "flex=0 mgl=1"},
		// Duplicates used to run the same engine twice; now deduped.
		{"flex,flex", "flex=0"},
		{"flex,mgl,flex,mgl-mt", "flex=0 mgl=1 mgl-mt=2"},
		// Unknown names name the offending position.
		{"flex,bogus", `error: unknown engine "bogus" at position 2 (want flex, mgl, mgl-mt, gpu, analytical or all)`},
		{"bogus", `error: unknown engine "bogus" at position 1 (want flex, mgl, mgl-mt, gpu, analytical or all)`},
		{"flex,,mgl,nope,", `error: unknown engine "nope" at position 4 (want flex, mgl, mgl-mt, gpu, analytical or all)`},
		// "all" only expands as the whole argument, not as a list entry.
		{"flex,all", `error: unknown engine "all" at position 2 (want flex, mgl, mgl-mt, gpu, analytical or all)`},
		// Nothing selected at all.
		{"", `error: no engine selected in ""`},
		{",", `error: no engine selected in ","`},
		{" , ", `error: no engine selected in " , "`},
	}
	for _, g := range golden {
		if got := render(g.input); got != g.want {
			t.Errorf("parseEngines(%q):\n got  %s\n want %s", g.input, got, g.want)
		}
	}
}

// TestParseEnginesAllLeadsWithFLEX guards the -out contract: the "all"
// expansion keeps FLEX first so -out writes the headline engine's layout.
func TestParseEnginesAllLeadsWithFLEX(t *testing.T) {
	engines, names, err := parseEngines("all")
	if err != nil {
		t.Fatal(err)
	}
	if registry := flex.EngineNames(); len(engines) != len(registry) {
		t.Fatalf("all expands to %d engines, registry has %d", len(engines), len(registry))
	}
	if names[0] != "flex" {
		t.Fatalf("all leads with %q, want flex", names[0])
	}
}

// TestReadLayoutFileRejectsTallCell pins the -in edge check: a movable
// cell taller than the die used to reach the analytical engine and crash
// flexlg. Decoding must fail first, naming the cell and the rule (main
// prints the error and exits 1).
func TestReadLayoutFileRejectsTallCell(t *testing.T) {
	path := filepath.Join(t.TempDir(), "bad.flexpl")
	bad := "flexpl 1\ndesign x\ndie 4 2 8\ncells 1\nc0 0 0 1 5 any 0\n"
	if err := os.WriteFile(path, []byte(bad), 0o644); err != nil {
		t.Fatal(err)
	}
	_, err := readLayoutFile(path)
	if err == nil {
		t.Fatal("readLayoutFile accepted a cell taller than the die")
	}
	if !strings.Contains(err.Error(), "c0") || !strings.Contains(err.Error(), "height must be <=") {
		t.Fatalf("error %q does not name the cell and the rule", err)
	}
}
