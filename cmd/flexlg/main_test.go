package main

import (
	"errors"
	"fmt"
	"os"
	"os/exec"
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

// TestMain lets a test re-run this binary as flexlg itself: with
// FLEXLG_TEST_MAIN set, the process runs main on its remaining arguments
// instead of the tests.
func TestMain(m *testing.M) {
	if os.Getenv("FLEXLG_TEST_MAIN") != "" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// TestInRejectsFixedCellOutsideDie runs flexlg -in on layouts whose fixed
// cell lies outside the die. Every engine used to legalize them in full and
// then fail the out-of-die check; flexlg must instead exit 1 at decode with
// an error naming the cell and the rule.
func TestInRejectsFixedCellOutsideDie(t *testing.T) {
	for _, cell := range []string{"f0 30 9 4 2 any 1", "f0 -3 -1 6 3 any 1"} {
		path := filepath.Join(t.TempDir(), "bad.flexpl")
		bad := "flexpl 1\ndesign x\ndie 20 4 8\ncells 1\n" + cell + "\n"
		if err := os.WriteFile(path, []byte(bad), 0o644); err != nil {
			t.Fatal(err)
		}
		cmd := exec.Command(os.Args[0], "-in", path)
		cmd.Env = append(os.Environ(), "FLEXLG_TEST_MAIN=1")
		out, err := cmd.CombinedOutput()
		var exit *exec.ExitError
		if !errors.As(err, &exit) || exit.ExitCode() != 1 {
			t.Fatalf("%s: flexlg -in returned %v, want exit status 1; output:\n%s", cell, err, out)
		}
		if !strings.Contains(string(out), "fixed cell f0") || !strings.Contains(string(out), "wholly inside the die") {
			t.Fatalf("%s: output does not name the cell and the rule:\n%s", cell, out)
		}
	}
}
