package main

import (
	"bytes"
	"os"
	"path/filepath"
	"reflect"
	"strconv"
	"strings"
	"testing"

	"tipsy/internal/core"
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

// TestSimulateIsAFunctionOfItsSeed runs two same-seed simulations and
// requires byte-identical bundles, so a bundle can be hashed or diffed.
func TestSimulateIsAFunctionOfItsSeed(t *testing.T) {
	dir := t.TempDir()
	var bundles [2][]byte
	for i := range bundles {
		path := filepath.Join(dir, strconv.Itoa(i)+".tipsy")
		if err := cmdSimulate([]string{"-seed", "1", "-days", "2", "-o", path}); err != nil {
			t.Fatalf("simulate: %v", err)
		}
		var err error
		if bundles[i], err = os.ReadFile(path); err != nil {
			t.Fatal(err)
		}
	}
	if !bytes.Equal(bundles[0], bundles[1]) {
		i := 0
		for i < min(len(bundles[0]), len(bundles[1])) && bundles[0][i] == bundles[1][i] {
			i++
		}
		t.Errorf("two seed-1 simulations wrote bundles of %d and %d bytes that differ from byte %d",
			len(bundles[0]), len(bundles[1]), i)
	}
}

// TestCLIWorkflow exercises the whole command surface end to end on a
// tiny simulation: simulate -> info -> train -> predict -> eval.
// Output goes to files in a temp dir; the commands run in process.
func TestCLIWorkflow(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	dir := t.TempDir()
	bundle := filepath.Join(dir, "t.tipsy")
	model := filepath.Join(dir, "m.tipsy")

	// Only the two named scales build an environment; a near miss or
	// another scale's name is refused before anything is simulated.
	for _, bad := range []string{"medium", "ful"} {
		if err := cmdSimulate([]string{"-scale", bad, "-o", bundle}); err == nil ||
			!strings.Contains(err.Error(), strconv.Quote(bad)) {
			t.Errorf("-scale %s: got %v, want an error naming it", bad, err)
		}
	}
	if _, err := os.Stat(bundle); !os.IsNotExist(err) {
		t.Fatalf("a refused -scale left a bundle behind: %v", err)
	}
	if err := cmdSimulate([]string{"-seed", "9", "-days", "5", "-o", bundle}); err != nil {
		t.Fatalf("simulate: %v", err)
	}
	if _, err := os.Stat(bundle); err != nil {
		t.Fatalf("bundle missing: %v", err)
	}
	if err := cmdInfo([]string{"-i", bundle}); err != nil {
		t.Fatalf("info: %v", err)
	}
	// Training twice onto one path leaves one model that loads and no
	// temporary file beside it.
	for i := 0; i < 2; i++ {
		if err := cmdTrain([]string{"-i", bundle, "-set", "AP", "-to-hour", "96", "-o", model}); err != nil {
			t.Fatalf("train: %v", err)
		}
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, e := range entries {
		names = append(names, e.Name())
	}
	if want := []string{"m.tipsy", "t.tipsy"}; !reflect.DeepEqual(names, want) {
		t.Errorf("after two trainings the directory holds %q, want %q", names, want)
	}
	// The file is a one-model checkpoint stamped with the window's end.
	ck, err := core.LoadCheckpointFile(model)
	if err != nil {
		t.Fatalf("trained model does not load: %v", err)
	}
	if len(ck.Models) != 1 || ck.TrainedAt != 96 || ck.Models[0].Name() != "Hist_AP" {
		t.Errorf("checkpoint holds %d models trained at hour %d, want one Hist_AP at 96", len(ck.Models), ck.TrainedAt)
	}
	if err := cmdPredict([]string{"-i", bundle, "-model", model, "-src", "11.0.3.7", "-exclude", "0, 3"}); err != nil {
		t.Fatalf("predict: %v", err)
	}
	// A link ID outside uint32 is refused, not wrapped onto another
	// link: -1 would exclude nothing, 4294967301 would exclude link 5.
	for _, bad := range []string{"-1", "4294967301"} {
		err := cmdPredict([]string{"-i", bundle, "-model", model, "-src", "11.0.3.7", "-exclude", "2," + bad})
		if err == nil || !strings.Contains(err.Error(), "bad -exclude entry "+strconv.Quote(bad)) {
			t.Errorf("-exclude 2,%s: got %v, want an error naming the entry", bad, err)
		}
	}
	// predict refuses a checkpoint of any other size and says how many
	// models it found.
	two := filepath.Join(t.TempDir(), "two.tipsy")
	ck.Models = append(ck.Models, ck.Models[0])
	if err := ck.SaveFile(two); err != nil {
		t.Fatal(err)
	}
	if err := cmdPredict([]string{"-i", bundle, "-model", two, "-src", "11.0.3.7"}); err == nil ||
		!strings.Contains(err.Error(), "holds 2 models") {
		t.Errorf("a two-model checkpoint should be refused by count, got %v", err)
	}
	if err := cmdEval([]string{"-i", bundle, "-train-days", "4"}); err != nil {
		t.Fatalf("eval: %v", err)
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
