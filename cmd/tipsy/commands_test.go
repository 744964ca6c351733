package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"tipsy/internal/features"
)

// TestParseIPv4: `tipsy predict -src` takes the server's strict
// dotted-quad parser, so the CLI refuses every address the server
// refuses. A well-formed -src gets past parsing to the missing bundle.
func TestParseIPv4(t *testing.T) {
	missing := filepath.Join(t.TempDir(), "missing")
	predict := func(src string) error {
		return cmdPredict([]string{"-i", missing, "-model", missing, "-src", src})
	}
	for _, good := range []string{"11.0.3.7", "0.0.0.0", "255.255.255.255"} {
		if err := predict(good); err == nil || strings.Contains(err.Error(), "bad IPv4") {
			t.Errorf("-src %q: got %v, want the missing-bundle error", good, err)
		}
	}
	for _, bad := range []string{
		"", "1.2.3", "256.1.1.1", "a.b.c.d", "010.1.1.1", "+1.2.3.4", "1.2.3.04",
	} {
		if err := predict(bad); err == nil || !strings.Contains(err.Error(), "bad IPv4") {
			t.Errorf("-src %q: got %v, want a bad-address error", bad, err)
		}
	}
}

func TestParseSet(t *testing.T) {
	for in, want := range map[string]features.Set{
		"A": features.SetA, "ap": features.SetAP, "Al": features.SetAL,
	} {
		got, err := parseSet(in)
		if err != nil || got != want {
			t.Errorf("parseSet(%q) = %v, %v", in, got, err)
		}
	}
	if _, err := parseSet("APL"); err == nil {
		t.Error("APL should be rejected (equivalent to AP, not a separate set)")
	}
}

// TestCLIWorkflow exercises the whole command surface end to end on a
// tiny simulation: simulate -> info -> train -> eval -> suspicious ->
// depeer. Output goes to files in a temp dir; the commands run in
// process.
func TestCLIWorkflow(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	dir := t.TempDir()
	bundle := filepath.Join(dir, "t.tipsy")
	model := filepath.Join(dir, "m.tipsy")

	if err := cmdSimulate([]string{"-seed", "9", "-days", "5", "-o", bundle}); err != nil {
		t.Fatalf("simulate: %v", err)
	}
	if _, err := os.Stat(bundle); err != nil {
		t.Fatalf("bundle missing: %v", err)
	}
	if err := cmdInfo([]string{"-i", bundle}); err != nil {
		t.Fatalf("info: %v", err)
	}
	if err := cmdTrain([]string{"-i", bundle, "-set", "AP", "-to-hour", "96", "-o", model}); err != nil {
		t.Fatalf("train: %v", err)
	}
	if err := cmdEval([]string{"-i", bundle, "-train-days", "4"}); err != nil {
		t.Fatalf("eval: %v", err)
	}
	if err := cmdSuspicious([]string{"-i", bundle, "-train-days", "4"}); err != nil {
		t.Fatalf("suspicious: %v", err)
	}
	if err := cmdDepeer([]string{"-i", bundle, "-train-days", "4"}); err != nil {
		t.Fatalf("depeer: %v", err)
	}
	// Errors surface cleanly for missing files.
	if err := cmdInfo([]string{"-i", filepath.Join(dir, "missing")}); err == nil {
		t.Error("missing bundle should error")
	}
	if err := cmdTrain([]string{"-i", bundle, "-from-hour", "500", "-to-hour", "501", "-o", model}); err == nil ||
		!strings.Contains(err.Error(), "no records") {
		t.Errorf("empty window should error, got %v", err)
	}
}
