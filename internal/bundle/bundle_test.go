package bundle

import (
	"bytes"
	"encoding/json"
	"errors"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"tipsy/internal/core"
)

func textSection(name, body string) Section {
	return Section{Name: name, Write: func(w io.Writer) error {
		_, err := io.WriteString(w, body)
		return err
	}}
}

func writeTestBundle(t testing.TB, parent string) string {
	t.Helper()
	dir, err := Write(parent, "bundle-1-0001-test", "test", 42,
		map[string]string{"seed": "17", "go_version": "go1.22"},
		[]Section{
			textSection("metrics.prom", "tipsyd_predict_requests_total 3\n"),
			textSection("log_tail.txt", "level=INFO msg=retrained\n"),
		})
	if err != nil {
		t.Fatal(err)
	}
	return dir
}

func TestBundleRoundTrip(t *testing.T) {
	parent := t.TempDir()
	dir := writeTestBundle(t, parent)

	if filepath.Dir(dir) != parent || filepath.Base(dir) != "bundle-1-0001-test" {
		t.Fatalf("bundle landed at %s", dir)
	}
	// No staging leftovers: the write is atomic via rename.
	entries, err := os.ReadDir(parent)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 {
		t.Fatalf("parent has %d entries, want just the bundle", len(entries))
	}

	man, err := ReadManifest(dir)
	if err != nil {
		t.Fatal(err)
	}
	if man.Version != ManifestVersion || man.Reason != "test" || man.CreatedNs != 42 {
		t.Fatalf("manifest header %+v", man)
	}
	if man.Build["seed"] != "17" {
		t.Fatalf("manifest build %v", man.Build)
	}
	if len(man.Entries) != 2 {
		t.Fatalf("manifest entries %v", man.Entries)
	}
	// Entries are sorted by name.
	if man.Entries[0].Name != "log_tail.txt" || man.Entries[1].Name != "metrics.prom" {
		t.Fatalf("entry order %v", man.Entries)
	}
	if man.Entries[1].Size != int64(len("tipsyd_predict_requests_total 3\n")) {
		t.Fatalf("metrics size %d", man.Entries[1].Size)
	}

	if _, err := Verify(dir); err != nil {
		t.Fatalf("verify: %v", err)
	}
}

func TestVerifyCatchesCorruption(t *testing.T) {
	dir := writeTestBundle(t, t.TempDir())
	path := filepath.Join(dir, "metrics.prom")
	buf, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}

	// Same size, different bytes: only the CRC can catch it.
	buf[0] ^= 0xff
	if err := os.WriteFile(path, buf, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Verify(dir); err == nil || !strings.Contains(err.Error(), "metrics.prom") {
		t.Fatalf("verify after bit flip: %v", err)
	}

	// Truncation changes the size.
	if err := os.WriteFile(path, buf[:4], 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Verify(dir); err == nil {
		t.Fatal("verify accepted a truncated section")
	}

	// A missing section fails too.
	if err := os.Remove(path); err != nil {
		t.Fatal(err)
	}
	if _, err := Verify(dir); err == nil {
		t.Fatal("verify accepted a missing section")
	}
}

func TestVerifyCatchesManifestCorruption(t *testing.T) {
	dir := writeTestBundle(t, t.TempDir())
	path := filepath.Join(dir, ManifestName)
	buf, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	buf[len(buf)-1] ^= 0xff
	if err := os.WriteFile(path, buf, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Verify(dir); err == nil {
		t.Fatal("verify accepted a corrupted manifest")
	}
}

func TestWriteRejectsBadNames(t *testing.T) {
	parent := t.TempDir()
	bad := []string{"", ".", ".hidden", "a/b", ".."}
	for _, name := range bad {
		if _, err := Write(parent, name, "r", 1, nil, nil); err == nil {
			t.Errorf("bundle name %q accepted", name)
		}
	}
	// Section names may not collide with the manifest or escape the dir.
	for _, sec := range []string{ManifestName, "x/y", "..", ""} {
		_, err := Write(parent, "ok-bundle", "r", 1, nil, []Section{textSection(sec, "x")})
		if err == nil {
			t.Errorf("section name %q accepted", sec)
		}
	}
	// Failed writes leave no staging debris behind.
	entries, err := os.ReadDir(parent)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 0 {
		t.Fatalf("parent not clean after failed writes: %v", entries)
	}
}

func TestWriteFailingSectionAborts(t *testing.T) {
	parent := t.TempDir()
	boom := errors.New("boom")
	_, err := Write(parent, "b", "r", 1, nil, []Section{
		{Name: "bad.bin", Write: func(io.Writer) error { return boom }},
	})
	if !errors.Is(err, boom) {
		t.Fatalf("err %v, want wrapped boom", err)
	}
	entries, _ := os.ReadDir(parent)
	if len(entries) != 0 {
		t.Fatalf("failed bundle left debris: %v", entries)
	}
}

// FuzzReadManifest feeds arbitrary bytes to ReadManifest twice: as the
// MANIFEST.tipsy file itself and as the payload of an intact TIPSYBN1
// frame. It may only fail with a framing, JSON or version error, never
// panic, and a manifest it accepts must re-marshal and re-frame, the
// way Write does it, to bytes that read back to the same manifest.
func FuzzReadManifest(f *testing.F) {
	dir := writeTestBundle(f, f.TempDir())
	valid, err := os.ReadFile(filepath.Join(dir, ManifestName))
	if err != nil {
		f.Fatal(err)
	}
	payload, err := core.ReadFramed(bytes.NewReader(valid), core.BundleManifestMagic)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(valid)
	f.Add(payload)
	f.Add([]byte{})
	f.Add([]byte(`{"version":2,"entries":null}`))
	f.Add([]byte(`{"version":1,"build":{},"entries":[]}`))
	f.Add([]byte(`{"version":1,"entries":[{"name":"x","size":-1,"crc32":4294967296}]}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		var framed bytes.Buffer
		if err := core.WriteFramed(&framed, core.BundleManifestMagic, data); err != nil {
			t.Fatal(err)
		}
		for _, file := range [][]byte{data, framed.Bytes()} {
			man, ok := readManifestBytes(t, dir, file)
			if !ok {
				continue
			}
			out, err := json.MarshalIndent(man, "", "  ")
			if err != nil {
				t.Fatalf("accepted manifest %+v does not marshal: %v", man, err)
			}
			var again bytes.Buffer
			if err := core.WriteFramed(&again, core.BundleManifestMagic, out); err != nil {
				t.Fatal(err)
			}
			back, ok := readManifestBytes(t, dir, again.Bytes())
			if !ok || !reflect.DeepEqual(back, man) {
				t.Fatalf("re-framed manifest reads back as %+v (ok %v), want %+v", back, ok, man)
			}
		}
	})
}

// readManifestBytes writes file as dir's manifest and reads it back,
// failing t on any error other than a framing, JSON or version error.
func readManifestBytes(t *testing.T, dir string, file []byte) (Manifest, bool) {
	t.Helper()
	if err := os.WriteFile(filepath.Join(dir, ManifestName), file, 0o644); err != nil {
		t.Fatal(err)
	}
	man, err := ReadManifest(dir)
	var syntax *json.SyntaxError
	var typ *json.UnmarshalTypeError
	switch {
	case err == nil:
		return man, true
	case errors.Is(err, core.ErrBadSnapshot), errors.Is(err, core.ErrCorruptSnapshot),
		errors.As(err, &syntax), errors.As(err, &typ),
		strings.Contains(err.Error(), "unsupported manifest version"):
		return Manifest{}, false
	}
	t.Fatalf("unexpected error class: %v", err)
	return Manifest{}, false
}
