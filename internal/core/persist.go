package core

import (
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"slices"

	"tipsy/internal/features"
	"tipsy/internal/wan"
)

// Snapshot load errors. ErrBadSnapshot means the bytes were never a
// snapshot (wrong magic); ErrCorruptSnapshot means a snapshot that was
// damaged in storage or cut short by a crash mid-write.
var (
	ErrBadSnapshot     = errors.New("core: not a model snapshot")
	ErrCorruptSnapshot = errors.New("core: corrupt model snapshot")
)

// Snapshots are framed so a loader can tell a truncated or damaged
// file from a valid one before handing bytes to gob: an 8-byte magic
// (distinct per snapshot kind — gob alone cannot tell one struct from
// another, since it matches fields by name), the payload length, and a
// CRC-32 of the payload.
const (
	checkpointMagic  = "TIPSYCK1"
	frameHeaderLen   = 8 + 8 + 4
	maxSnapshotBytes = 1 << 32 // sanity cap against garbage length fields
	frameReadChunk   = 1 << 20 // payload bytes read per allocation step
)

// BundleManifestMagic frames diagnostic-bundle manifests (see
// internal/bundle), exported alongside WriteFramed/ReadFramed so the
// bundle writer reuses this file's framing and checksum discipline
// rather than inventing a second format.
const BundleManifestMagic = "TIPSYBN1"

// WriteFramed writes payload under this package's snapshot framing:
// the 8-byte magic, the payload length, and a CRC-32 of the payload,
// followed by the payload itself.
func WriteFramed(w io.Writer, magic string, payload []byte) error {
	if len(magic) != 8 {
		return fmt.Errorf("core: frame magic must be 8 bytes, got %d", len(magic))
	}
	return writeFrame(w, magic, payload)
}

// ReadFramed reads a frame written by WriteFramed, verifying magic,
// length, and checksum; errors wrap ErrBadSnapshot (wrong magic) or
// ErrCorruptSnapshot (truncation, checksum mismatch).
func ReadFramed(r io.Reader, magic string) ([]byte, error) {
	if len(magic) != 8 {
		return nil, fmt.Errorf("core: frame magic must be 8 bytes, got %d", len(magic))
	}
	return readFrame(r, magic)
}

func writeFrame(w io.Writer, magic string, payload []byte) error {
	hdr := make([]byte, 0, frameHeaderLen)
	hdr = append(hdr, magic...)
	hdr = binary.BigEndian.AppendUint64(hdr, uint64(len(payload)))
	hdr = binary.BigEndian.AppendUint32(hdr, crc32.ChecksumIEEE(payload))
	if _, err := w.Write(hdr); err != nil {
		return err
	}
	_, err := w.Write(payload)
	return err
}

func readFrame(r io.Reader, magic string) ([]byte, error) {
	hdr := make([]byte, frameHeaderLen)
	if _, err := io.ReadFull(r, hdr); err != nil {
		return nil, fmt.Errorf("%w: header: %v", ErrBadSnapshot, err)
	}
	if string(hdr[:8]) != magic {
		return nil, fmt.Errorf("%w: bad magic", ErrBadSnapshot)
	}
	n := binary.BigEndian.Uint64(hdr[8:16])
	if n > maxSnapshotBytes {
		return nil, fmt.Errorf("%w: implausible payload length %d", ErrCorruptSnapshot, n)
	}
	// Allocate what arrives, not what the header claims: a damaged
	// length field costs at most one chunk before the short read shows.
	// A payload of one chunk or less keeps its single allocation.
	payload := make([]byte, 0, min(n, frameReadChunk))
	for uint64(len(payload)) < n {
		start := len(payload)
		chunk := int(min(n-uint64(start), frameReadChunk))
		payload = slices.Grow(payload, chunk)[:start+chunk]
		if _, err := io.ReadFull(r, payload[start:]); err != nil {
			return nil, fmt.Errorf("%w: truncated payload: %v", ErrCorruptSnapshot, err)
		}
	}
	if crc32.ChecksumIEEE(payload) != binary.BigEndian.Uint32(hdr[16:20]) {
		return nil, fmt.Errorf("%w: checksum mismatch", ErrCorruptSnapshot)
	}
	return payload, nil
}

// writeFileAtomic writes via a temp file in the destination directory
// and renames it into place, so a crash mid-write leaves either the
// old file or the new one — never a torn snapshot at the final path.
func writeFileAtomic(path string, write func(io.Writer) error) error {
	dir := filepath.Dir(path)
	tmp, err := os.CreateTemp(dir, "."+filepath.Base(path)+".tmp*")
	if err != nil {
		return err
	}
	defer os.Remove(tmp.Name()) // no-op after a successful rename
	if err := write(tmp); err != nil {
		tmp.Close()
		return err
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		return err
	}
	if err := tmp.Close(); err != nil {
		return err
	}
	return os.Rename(tmp.Name(), path)
}

// histSnapshot is the serialized form of a Historical model, and the
// form it keeps in memory: the tuples in ascending order, the end
// offset of each tuple's links, and all the links in one flat array.
// Columns, not a map, because gob writes a map in iteration order and
// the bytes must be a function of the model.
type histSnapshot struct {
	Version int
	Set     features.Set
	Tuples  []features.Tuple
	Ends    []int32
	Preds   []Prediction
}

const snapshotVersion = 2

// versionError reports a snapshot written in a layout this build does
// not read.
type versionError struct {
	kind string
	got  int
}

func (e versionError) Error() string {
	return fmt.Sprintf("core: unsupported %s version %d (this build reads version %d)", e.kind, e.got, snapshotVersion)
}

func (h *Historical) snapshot() histSnapshot {
	return histSnapshot{Version: snapshotVersion, Set: h.set, Tuples: h.tuples, Ends: h.ends, Preds: h.preds}
}

// restoreHistorical checks the columns and adopts them as the model.
// Every link belongs to a tuple, every tuple is its own projection
// under a known feature set, and the tuples ascend, so the model is one
// TrainHistorical could have built.
func restoreHistorical(snap histSnapshot) (*Historical, error) {
	if snap.Version != snapshotVersion {
		return nil, versionError{"model", snap.Version}
	}
	switch snap.Set {
	case features.SetA, features.SetAP, features.SetAL:
	default:
		return nil, fmt.Errorf("core: %w: unknown feature set %d", ErrCorruptSnapshot, snap.Set)
	}
	if len(snap.Ends) != len(snap.Tuples) {
		return nil, fmt.Errorf("core: %w: %d tuples but %d ends", ErrCorruptSnapshot, len(snap.Tuples), len(snap.Ends))
	}
	for i, p := range snap.Preds {
		if !(p.Frac >= 0 && p.Frac <= 1) {
			return nil, fmt.Errorf("core: %w: link %d has fraction %v", ErrCorruptSnapshot, i, p.Frac)
		}
	}
	var start int32
	for i, t := range snap.Tuples {
		if i > 0 && snap.Tuples[i-1].Compare(t) >= 0 {
			return nil, fmt.Errorf("core: %w: tuple %d is out of order or repeated", ErrCorruptSnapshot, i)
		}
		if snap.Set.Project(features.FlowFeatures(t)) != t {
			return nil, fmt.Errorf("core: %w: tuple %d is not a %v tuple", ErrCorruptSnapshot, i, snap.Set)
		}
		end := snap.Ends[i]
		if end < start || int(end) > len(snap.Preds) {
			return nil, fmt.Errorf("core: %w: tuple %d ends at %d, after %d, of %d links",
				ErrCorruptSnapshot, i, end, start, len(snap.Preds))
		}
		start = end
	}
	if int(start) != len(snap.Preds) {
		return nil, fmt.Errorf("core: %w: the tuples end at link %d of %d", ErrCorruptSnapshot, start, len(snap.Preds))
	}
	return newHistorical(snap.Set, snap.Tuples, snap.Ends, snap.Preds), nil
}

// Checkpoint is the one file format for trained models: the set of
// Historical models a daemon had trained (or the one model `tipsy
// train` fits), stamped with the simulated hour the training window
// ended at, so a restarted process knows how stale the recovered
// models are. The frame carries a checksum, so a loader rejects torn
// or damaged files instead of serving from them.
type Checkpoint struct {
	TrainedAt wan.Hour
	Models    []*Historical
}

type checkpointSnapshot struct {
	Version   int
	TrainedAt int32
	Models    []histSnapshot
}

// Save writes the checkpoint to w, framed and checksummed.
func (c *Checkpoint) Save(w io.Writer) error {
	snap := checkpointSnapshot{Version: snapshotVersion, TrainedAt: int32(c.TrainedAt)}
	for _, m := range c.Models {
		snap.Models = append(snap.Models, m.snapshot())
	}
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(snap); err != nil {
		return err
	}
	return writeFrame(w, checkpointMagic, buf.Bytes())
}

// SaveFile atomically writes the checkpoint to path: the bytes land
// in a temp file first and are renamed into place, so a crash
// mid-write never leaves a torn file where a serving process would
// look.
func (c *Checkpoint) SaveFile(path string) error {
	return writeFileAtomic(path, c.Save)
}

// LoadCheckpoint reads a checkpoint previously written with Save,
// rejecting truncated or damaged input.
func LoadCheckpoint(r io.Reader) (*Checkpoint, error) {
	payload, err := readFrame(r, checkpointMagic)
	if err != nil {
		return nil, fmt.Errorf("core: load checkpoint: %w", err)
	}
	var snap checkpointSnapshot
	if err := gob.NewDecoder(bytes.NewReader(payload)).Decode(&snap); err != nil {
		return nil, fmt.Errorf("core: load checkpoint: %w: %v", ErrCorruptSnapshot, err)
	}
	if snap.Version != snapshotVersion {
		return nil, versionError{"checkpoint", snap.Version}
	}
	c := &Checkpoint{TrainedAt: wan.Hour(snap.TrainedAt)}
	for _, ms := range snap.Models {
		m, err := restoreHistorical(ms)
		if err != nil {
			return nil, err
		}
		c.Models = append(c.Models, m)
	}
	return c, nil
}

// LoadCheckpointFile reads a checkpoint from a file written by
// SaveFile.
func LoadCheckpointFile(path string) (*Checkpoint, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return LoadCheckpoint(f)
}
