// Package bundle writes and verifies tipsyd's diagnostic bundles: a
// self-contained directory of evidence (metrics snapshot, quality
// report, flight-recorder dump, log tail, pprof profiles, build
// manifest) captured when an alarm fires or an operator asks. The
// directory is written to a hidden staging dir and renamed into place
// atomically, so a crash mid-write never leaves a half bundle at the
// final path; a framed, CRC-checked manifest (core/persist framing)
// indexes every section with its size and checksum so a bundle can be
// verified end to end after any amount of shipping around.
package bundle

import (
	"encoding/json"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"sort"

	"tipsy/internal/core"
)

// ManifestName is the manifest's filename inside a bundle directory.
const ManifestName = "MANIFEST.tipsy"

// ManifestVersion is bumped when the manifest schema changes shape.
const ManifestVersion = 1

// Entry describes one section file in the bundle.
type Entry struct {
	Name  string `json:"name"`
	Size  int64  `json:"size"`
	CRC32 uint32 `json:"crc32"`
}

// Manifest indexes a bundle: why and when it was written, the build
// that wrote it, and a checksummed entry per section.
type Manifest struct {
	Version   int               `json:"version"`
	Reason    string            `json:"reason"`
	CreatedNs int64             `json:"created_ns"`
	Build     map[string]string `json:"build"`
	Entries   []Entry           `json:"entries"`
}

// Section is one file to capture: a name and a writer callback, so
// callers stream content straight into the bundle without staging it
// in memory.
type Section struct {
	Name  string
	Write func(io.Writer) error
}

// Write captures sections into parent/name and returns the final
// directory path. Section checksums are computed as the bytes are
// written; the framed manifest lands last, then the whole staging
// directory is renamed into place. Any error aborts and removes the
// staging directory.
func Write(parent, name, reason string, nowNs int64, build map[string]string, sections []Section) (dir string, err error) {
	if name == "" || name != filepath.Base(name) || name[0] == '.' {
		return "", fmt.Errorf("bundle: invalid bundle name %q", name)
	}
	if err := os.MkdirAll(parent, 0o755); err != nil {
		return "", err
	}
	staging, err := os.MkdirTemp(parent, "."+name+".tmp")
	if err != nil {
		return "", err
	}
	// No-op once the rename succeeds; cleans up every failure path.
	defer os.RemoveAll(staging)

	man := Manifest{Version: ManifestVersion, Reason: reason, CreatedNs: nowNs, Build: build}
	for _, sec := range sections {
		ent, err := writeSection(staging, sec)
		if err != nil {
			return "", fmt.Errorf("bundle: section %s: %w", sec.Name, err)
		}
		man.Entries = append(man.Entries, ent)
	}
	sort.Slice(man.Entries, func(i, j int) bool { return man.Entries[i].Name < man.Entries[j].Name })

	payload, err := json.MarshalIndent(man, "", "  ")
	if err != nil {
		return "", err
	}
	mf, err := os.Create(filepath.Join(staging, ManifestName))
	if err != nil {
		return "", err
	}
	if err := core.WriteFramed(mf, core.BundleManifestMagic, payload); err != nil {
		mf.Close()
		return "", err
	}
	if err := mf.Close(); err != nil {
		return "", err
	}

	final := filepath.Join(parent, name)
	if err := os.Rename(staging, final); err != nil {
		return "", err
	}
	return final, nil
}

func writeSection(dir string, sec Section) (Entry, error) {
	if sec.Name == "" || sec.Name == ManifestName || sec.Name != filepath.Base(sec.Name) {
		return Entry{}, fmt.Errorf("invalid section name %q", sec.Name)
	}
	f, err := os.Create(filepath.Join(dir, sec.Name))
	if err != nil {
		return Entry{}, err
	}
	crc := crc32.NewIEEE()
	cw := &countingWriter{w: io.MultiWriter(f, crc)}
	if err := sec.Write(cw); err != nil {
		f.Close()
		return Entry{}, err
	}
	if err := f.Close(); err != nil {
		return Entry{}, err
	}
	return Entry{Name: sec.Name, Size: cw.n, CRC32: crc.Sum32()}, nil
}

type countingWriter struct {
	w io.Writer
	n int64
}

func (c *countingWriter) Write(p []byte) (int, error) {
	n, err := c.w.Write(p)
	c.n += int64(n)
	return n, err
}

// ReadManifest reads and frame-verifies the manifest of the bundle at
// dir (the manifest's own CRC is checked by the framing).
func ReadManifest(dir string) (Manifest, error) {
	f, err := os.Open(filepath.Join(dir, ManifestName))
	if err != nil {
		return Manifest{}, err
	}
	defer f.Close()
	payload, err := core.ReadFramed(f, core.BundleManifestMagic)
	if err != nil {
		return Manifest{}, fmt.Errorf("bundle: manifest: %w", err)
	}
	var man Manifest
	if err := json.Unmarshal(payload, &man); err != nil {
		return Manifest{}, fmt.Errorf("bundle: manifest: %w", err)
	}
	if man.Version != ManifestVersion {
		return Manifest{}, fmt.Errorf("bundle: unsupported manifest version %d", man.Version)
	}
	return man, nil
}

// Verify checks the bundle at dir end to end — manifest frame CRC,
// then every entry's size and CRC-32 — and returns the manifest.
func Verify(dir string) (Manifest, error) {
	man, err := ReadManifest(dir)
	if err != nil {
		return Manifest{}, err
	}
	for _, ent := range man.Entries {
		if err := verifyEntry(dir, ent); err != nil {
			return Manifest{}, err
		}
	}
	return man, nil
}

func verifyEntry(dir string, ent Entry) error {
	if ent.Name != filepath.Base(ent.Name) {
		return fmt.Errorf("bundle: manifest names invalid entry %q", ent.Name)
	}
	f, err := os.Open(filepath.Join(dir, ent.Name))
	if err != nil {
		return fmt.Errorf("bundle: %s: %w", ent.Name, err)
	}
	defer f.Close()
	crc := crc32.NewIEEE()
	n, err := io.Copy(crc, f)
	if err != nil {
		return fmt.Errorf("bundle: %s: %w", ent.Name, err)
	}
	if n != ent.Size {
		return fmt.Errorf("bundle: %s: size %d, manifest says %d", ent.Name, n, ent.Size)
	}
	if crc.Sum32() != ent.CRC32 {
		return fmt.Errorf("bundle: %s: checksum mismatch", ent.Name)
	}
	return nil
}
