package main

import (
	"strings"
	"testing"
)

// TestListNamesEveryExperiment exercises the entry point in -list
// mode and pins the experiment catalogue.
func TestListNamesEveryExperiment(t *testing.T) {
	var out, errOut strings.Builder
	if code := run([]string{"-list"}, &out, &errOut); code != 0 {
		t.Fatalf("-list exited %d: %s", code, errOut.String())
	}
	for _, want := range []string{
		"table1", "table4", "table5", "fig6", "fig9", "table15", "ablations",
	} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("-list output missing %s:\n%s", want, out.String())
		}
	}
}

// TestUnknownExperimentRejected pins the exit-2-with-usage contract.
func TestUnknownExperimentRejected(t *testing.T) {
	var out, errOut strings.Builder
	if code := run([]string{"-run", "nosuch"}, &out, &errOut); code != 2 {
		t.Fatalf("unknown experiment exited %d, want 2", code)
	}
	if !strings.Contains(errOut.String(), "nosuch") {
		t.Errorf("stderr does not name the unknown experiment: %s", errOut.String())
	}
}

// TestUnknownScaleRejected: only small and full build an environment,
// so another scale's name or a typo exits 2 naming it instead of
// silently running the small env.
func TestUnknownScaleRejected(t *testing.T) {
	for _, bad := range []string{"medium", "ful"} {
		var out, errOut strings.Builder
		if code := run([]string{"-scale", bad, "-run", "table1"}, &out, &errOut); code != 2 {
			t.Errorf("-scale %s exited %d, want 2", bad, code)
		}
		if !strings.Contains(errOut.String(), `"`+bad+`"`) {
			t.Errorf("stderr does not name -scale %s: %s", bad, errOut.String())
		}
		if out.Len() != 0 {
			t.Errorf("-scale %s wrote to stdout: %s", bad, out.String())
		}
	}
}

// TestFig6RunsWithoutEnvironment runs the one experiment that needs
// no simulated environment, end to end.
func TestFig6RunsWithoutEnvironment(t *testing.T) {
	var out, errOut strings.Builder
	if code := run([]string{"-run", "fig6", "-scale", "small"}, &out, &errOut); code != 0 {
		t.Fatalf("fig6 exited %d: %s", code, errOut.String())
	}
	if !strings.Contains(out.String(), "Figure 6") {
		t.Errorf("fig6 output missing its header:\n%s", out.String())
	}
}
