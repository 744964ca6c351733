package main

import (
	"bytes"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"strconv"
	"strings"
	"testing"

	"tipsy/internal/bgp"
	"tipsy/internal/core"
	"tipsy/internal/eval"
	"tipsy/internal/geo"
	"tipsy/internal/serve"
	"tipsy/internal/wan"
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
	// Training twice onto one path leaves one checkpoint and no
	// temporary file beside it.
	for i := 0; i < 2; i++ {
		if err := cmdTrain([]string{"-i", bundle, "-to-hour", "96", "-o", model}); err != nil {
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
	// The file is the generation tipsyd serves: its three fits,
	// stamped with the window's end, which tipsyd's checkpoint
	// recovery accepts on the bundle's links.
	ck, err := core.LoadCheckpointFile(model)
	if err != nil {
		t.Fatalf("trained model does not load: %v", err)
	}
	var fits []string
	for _, h := range ck.Models {
		fits = append(fits, h.Name())
	}
	if want := []string{"Hist_AP", "Hist_AL", "Hist_A"}; !reflect.DeepEqual(fits, want) || ck.TrainedAt != 96 {
		t.Errorf("checkpoint holds %q trained at hour %d, want %q at 96", fits, ck.TrainedAt, want)
	}
	b, err := loadBundle(bundle)
	if err != nil {
		t.Fatal(err)
	}
	metros, table := geo.World(), wan.NewTable(b.Links)
	gen, err := serve.FromCheckpoint(ck, table, metros)
	if err != nil {
		t.Fatalf("tipsyd would refuse the trained checkpoint: %v", err)
	}
	geoEntries := map[uint32]geo.MetroID{}
	for _, e := range b.Geo {
		geoEntries[e.Prefix] = e.Metro
	}
	geoip := geo.NewGeoIPFromEntries(metros, geoEntries)

	// predict prints the links Respond answers for the same request:
	// a flow of the bundle, then the same flow without its top link.
	f := b.Records[0].Flow
	src := bgp.FormatIP(f.Prefix + 7)
	flags := []string{"-i", bundle, "-model", model, "-src", src, "-as", strconv.Itoa(int(f.AS)),
		"-region", strconv.Itoa(int(f.Region)), "-svc", strconv.Itoa(int(f.Type))}
	req := &serve.Request{Flows: []serve.Flow{{SrcAddr: src, SrcAS: uint32(f.AS), Region: uint16(f.Region), Service: uint8(f.Type), Bytes: 1e9}}}
	for _, exclude := range []bool{false, true} {
		args := flags
		if exclude {
			req.ExcludeLinks = []wan.LinkID{resp(t, gen, req, geoip).Links[0].Link}
			args = append(args, "-exclude", strconv.Itoa(int(req.ExcludeLinks[0])))
		}
		want := resp(t, gen, req, geoip)
		out := stdout(t, func() error { return cmdPredict(args) })
		var got []wan.LinkID
		for _, line := range strings.Split(out, "\n") {
			var rank int
			var link wan.LinkID
			if n, _ := fmt.Sscanf(line, "  %d. link %d", &rank, &link); n == 2 {
				got = append(got, link)
			}
		}
		var links []wan.LinkID
		for _, ls := range want.Links {
			links = append(links, ls.Link)
		}
		if len(links) == 0 || !reflect.DeepEqual(got, links) || !strings.Contains(out, want.Model+" predicts") {
			t.Errorf("-exclude %v: predict printed\n%s\nwant rung %s with links %v", req.ExcludeLinks, out, want.Model, links)
		}
	}
	// A link ID outside uint32 is refused, not wrapped onto another
	// link: -1 would exclude nothing, 4294967301 would exclude link 5.
	for _, bad := range []string{"-1", "4294967301"} {
		err := cmdPredict([]string{"-i", bundle, "-model", model, "-src", "11.0.3.7", "-exclude", "2," + bad})
		if err == nil || !strings.Contains(err.Error(), "bad -exclude entry "+strconv.Quote(bad)) {
			t.Errorf("-exclude 2,%s: got %v, want an error naming the entry", bad, err)
		}
	}
	// predict refuses a checkpoint missing a fit, as tipsyd does.
	partial := filepath.Join(t.TempDir(), "partial.tipsy")
	ck.Models = ck.Models[:2]
	if err := ck.SaveFile(partial); err != nil {
		t.Fatal(err)
	}
	if err := cmdPredict([]string{"-i", bundle, "-model", partial, "-src", "11.0.3.7"}); err == nil ||
		!strings.Contains(err.Error(), "checkpoint incomplete") {
		t.Errorf("a checkpoint without Hist_A should be refused as incomplete, got %v", err)
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

// resp is Respond's answer for the request's one flow.
func resp(t *testing.T, gen *serve.Models, req *serve.Request, geoip *geo.GeoIP) serve.Result {
	t.Helper()
	flows, err := req.Encode(nil, geoip)
	if err != nil {
		t.Fatal(err)
	}
	var r serve.Response
	gen.Respond(&r, req, flows, func() int64 { return 0 }, nil)
	return r.Results[0]
}

// stdout runs fn and returns what it printed to os.Stdout.
func stdout(t *testing.T, fn func() error) string {
	t.Helper()
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	saved := os.Stdout
	os.Stdout = w
	err = fn()
	os.Stdout = saved
	w.Close()
	if err != nil {
		t.Fatal(err)
	}
	out, err := io.ReadAll(r)
	if err != nil {
		t.Fatal(err)
	}
	return string(out)
}

// TestEvalSplitsLikeTheHarness: tipsy eval on a simulated small
// bundle scores Table 4 as the experiment harness does on the same
// seed, since simulate runs the harness's world and eval splits the
// records where the harness does.
func TestEvalSplitsLikeTheHarness(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	bundle := filepath.Join(t.TempDir(), "t.tipsy")
	if err := cmdSimulate([]string{"-seed", "1", "-days", "11", "-o", bundle}); err != nil {
		t.Fatalf("simulate: %v", err)
	}
	b, err := loadBundle(bundle)
	if err != nil {
		t.Fatal(err)
	}
	e, err := evalEnv(b, 8)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := eval.Table4(e), eval.Table4(eval.Build(eval.SmallEnvConfig(1))); !reflect.DeepEqual(got, want) {
		t.Errorf("tipsy eval's Table 4:\n%s\nthe harness's:\n%s",
			eval.FormatAccuracyTable("cli", got), eval.FormatAccuracyTable("harness", want))
	}
}
