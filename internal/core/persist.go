package core

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"os"
	"path/filepath"
	"slices"
	"strconv"

	"tipsy/internal/bgp"
	"tipsy/internal/features"
	"tipsy/internal/geo"
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
// file from a valid one before decoding a byte of the payload: an
// 8-byte magic (distinct per snapshot kind and payload encoding), the
// payload length, and a CRC-32 of the payload.
const (
	// checkpointMagic frames a checkpoint of fixed-width columns, from
	// snapshot version 3 on; gobCheckpointMagic framed versions 1 and 2,
	// which were gob.
	checkpointMagic    = "TIPSYCK3"
	gobCheckpointMagic = "TIPSYCK1"
	frameHeaderLen     = 8 + 8 + 4
	maxSnapshotBytes   = 1 << 32 // sanity cap against garbage length fields
	frameReadChunk     = 1 << 20 // payload bytes read per allocation step
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

// magicError is a frame that opens with another magic than the one
// asked for.
type magicError string

func (e magicError) Error() string { return fmt.Sprintf("%v: bad magic %q", ErrBadSnapshot, string(e)) }
func (e magicError) Unwrap() error { return ErrBadSnapshot }

func readFrame(r io.Reader, magic string) ([]byte, error) {
	hdr := make([]byte, frameHeaderLen)
	if _, err := io.ReadFull(r, hdr); err != nil {
		return nil, fmt.Errorf("%w: header: %v", ErrBadSnapshot, err)
	}
	if string(hdr[:8]) != magic {
		return nil, magicError(hdr[:8])
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
// Columns in a fixed order, so the bytes are a function of the model.
type histSnapshot struct {
	Version int
	Set     features.Set
	Tuples  []features.Tuple
	Ends    []int32
	Preds   []Prediction
}

const snapshotVersion = 3

// versionError reports a snapshot written in a layout this build does
// not read.
type versionError struct {
	kind string
	got  string
}

func (e versionError) Error() string {
	return fmt.Sprintf("core: unsupported %s version %s (this build reads version %d)", e.kind, e.got, snapshotVersion)
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
		return nil, versionError{"model", strconv.Itoa(snap.Version)}
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

// Checkpoint is the one file format for trained models: a served
// generation's Historical fits (serve.Models.Checkpoint; tipsyd and
// `tipsy train` write it, serve.FromCheckpoint reads it), stamped
// with the simulated hour the training window ended at, so a
// restarted process knows how stale the recovered models are. The frame carries a checksum, so a loader rejects torn
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

// The version-3 payload is fixed-width little-endian columns:
//
//	version uint32, trainedAt int32, models uint32, then per model:
//	  set uint8, tuples uint32, links uint32,
//	  tuples × (AS uint32, prefix uint32, loc uint16, region uint16, type uint8),
//	  tuples × end int32,
//	  links × (link uint32, Float64bits(frac) uint64).
const (
	checkpointHeaderLen = 4 + 4 + 4
	modelHeaderLen      = 1 + 4 + 4
	tupleLen            = 4 + 4 + 2 + 2 + 1
	endLen              = 4
	predLen             = 4 + 8
)

// appendCheckpoint appends snap's payload to dst.
func appendCheckpoint(dst []byte, snap checkpointSnapshot) []byte {
	le := binary.LittleEndian
	dst = le.AppendUint32(dst, uint32(snap.Version))
	dst = le.AppendUint32(dst, uint32(snap.TrainedAt))
	dst = le.AppendUint32(dst, uint32(len(snap.Models)))
	for _, m := range snap.Models {
		dst = append(dst, byte(m.Set))
		dst = le.AppendUint32(dst, uint32(len(m.Tuples)))
		dst = le.AppendUint32(dst, uint32(len(m.Preds)))
		for _, t := range m.Tuples {
			dst = le.AppendUint32(dst, uint32(t.AS))
			dst = le.AppendUint32(dst, t.Prefix)
			dst = le.AppendUint16(dst, uint16(t.Loc))
			dst = le.AppendUint16(dst, uint16(t.Region))
			dst = append(dst, byte(t.Type))
		}
		for _, e := range m.Ends {
			dst = le.AppendUint32(dst, uint32(e))
		}
		for _, p := range m.Preds {
			dst = le.AppendUint32(dst, uint32(p.Link))
			dst = le.AppendUint64(dst, math.Float64bits(p.Frac))
		}
	}
	return dst
}

// checkpointLen is the length of snap's payload.
func checkpointLen(snap checkpointSnapshot) int {
	n := checkpointHeaderLen
	for _, m := range snap.Models {
		n += modelHeaderLen + len(m.Tuples)*tupleLen + len(m.Ends)*endLen + len(m.Preds)*predLen
	}
	return n
}

// Save writes the checkpoint to w, framed and checksummed.
func (c *Checkpoint) Save(w io.Writer) error {
	snap := checkpointSnapshot{Version: snapshotVersion, TrainedAt: int32(c.TrainedAt)}
	for _, m := range c.Models {
		snap.Models = append(snap.Models, m.snapshot())
	}
	return writeFrame(w, checkpointMagic, appendCheckpoint(make([]byte, 0, checkpointLen(snap)), snap))
}

// SaveFile atomically writes the checkpoint to path: the bytes land
// in a temp file first and are renamed into place, so a crash
// mid-write never leaves a torn file where a serving process would
// look.
func (c *Checkpoint) SaveFile(path string) error {
	return writeFileAtomic(path, c.Save)
}

// LoadCheckpoint reads a checkpoint previously written with Save,
// rejecting truncated or damaged input. A gob checkpoint of versions 1
// and 2 is refused as an unsupported version.
func LoadCheckpoint(r io.Reader) (*Checkpoint, error) {
	payload, err := readFrame(r, checkpointMagic)
	if err != nil {
		if magic := magicError(""); errors.As(err, &magic) && magic == gobCheckpointMagic {
			return nil, versionError{"checkpoint", "1 or 2 (gob)"}
		}
		return nil, fmt.Errorf("core: load checkpoint: %w", err)
	}
	return decodeCheckpoint(payload)
}

// payloadReader reads fixed-width little-endian fields off the front
// of a payload; its caller checks the length first.
type payloadReader []byte

func (r *payloadReader) u8() uint8 {
	v := (*r)[0]
	*r = (*r)[1:]
	return v
}

func (r *payloadReader) u16() uint16 {
	v := binary.LittleEndian.Uint16(*r)
	*r = (*r)[2:]
	return v
}

func (r *payloadReader) u32() uint32 {
	v := binary.LittleEndian.Uint32(*r)
	*r = (*r)[4:]
	return v
}

func (r *payloadReader) u64() uint64 {
	v := binary.LittleEndian.Uint64(*r)
	*r = (*r)[8:]
	return v
}

// decodeCheckpoint reads a version-3 payload. Each count is checked
// against the bytes left before anything is sized from it, so a damaged
// count costs no more than the payload it came in; the columns
// themselves are checked by restoreHistorical.
func decodeCheckpoint(payload []byte) (*Checkpoint, error) {
	r := payloadReader(payload)
	if len(r) < checkpointHeaderLen {
		return nil, fmt.Errorf("core: load checkpoint: %w: a %d-byte payload", ErrCorruptSnapshot, len(r))
	}
	if v := r.u32(); v != snapshotVersion {
		return nil, versionError{"checkpoint", strconv.FormatUint(uint64(v), 10)}
	}
	trainedAt, n := int32(r.u32()), uint64(r.u32())
	if uint64(len(r)) < n*modelHeaderLen {
		return nil, fmt.Errorf("core: load checkpoint: %w: %d models in %d bytes", ErrCorruptSnapshot, n, len(r))
	}
	c := &Checkpoint{TrainedAt: wan.Hour(trainedAt), Models: make([]*Historical, 0, n)}
	for i := range n {
		if len(r) < modelHeaderLen {
			return nil, fmt.Errorf("core: load checkpoint: %w: model %d is cut short", ErrCorruptSnapshot, i)
		}
		set, tuples, links := features.Set(r.u8()), uint64(r.u32()), uint64(r.u32())
		if uint64(len(r)) < tuples*(tupleLen+endLen)+links*predLen {
			return nil, fmt.Errorf("core: load checkpoint: %w: model %d claims %d tuples and %d links in %d bytes", ErrCorruptSnapshot, i, tuples, links, len(r))
		}
		snap := histSnapshot{Version: snapshotVersion, Set: set, Tuples: make([]features.Tuple, tuples), Ends: make([]int32, tuples), Preds: make([]Prediction, links)}
		for j := range snap.Tuples {
			snap.Tuples[j] = features.Tuple{
				AS: bgp.ASN(r.u32()), Prefix: r.u32(), Loc: geo.MetroID(r.u16()),
				Region: wan.Region(r.u16()), Type: wan.ServiceType(r.u8()),
			}
		}
		for j := range snap.Ends {
			snap.Ends[j] = int32(r.u32())
		}
		for j := range snap.Preds {
			snap.Preds[j] = Prediction{Link: wan.LinkID(r.u32()), Frac: math.Float64frombits(r.u64())}
		}
		m, err := restoreHistorical(snap)
		if err != nil {
			return nil, err
		}
		c.Models = append(c.Models, m)
	}
	if len(r) > 0 {
		return nil, fmt.Errorf("core: load checkpoint: %w: %d bytes after the last model", ErrCorruptSnapshot, len(r))
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
