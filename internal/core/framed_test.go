package core

import (
	"bytes"
	"encoding/binary"
	"errors"
	"runtime"
	"testing"
)

func TestFramedRoundTrip(t *testing.T) {
	payload := []byte(`{"version":1,"entries":[]}`)
	var buf bytes.Buffer
	if err := WriteFramed(&buf, BundleManifestMagic, payload); err != nil {
		t.Fatal(err)
	}
	got, err := ReadFramed(bytes.NewReader(buf.Bytes()), BundleManifestMagic)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, payload) {
		t.Fatalf("payload %q, want %q", got, payload)
	}
}

func TestFramedRejectsCorruption(t *testing.T) {
	payload := []byte("hello framed world")
	var buf bytes.Buffer
	if err := WriteFramed(&buf, BundleManifestMagic, payload); err != nil {
		t.Fatal(err)
	}
	raw := buf.Bytes()

	// Flip a payload byte: checksum must catch it.
	flipped := append([]byte(nil), raw...)
	flipped[len(flipped)-1] ^= 0xff
	if _, err := ReadFramed(bytes.NewReader(flipped), BundleManifestMagic); !errors.Is(err, ErrCorruptSnapshot) {
		t.Fatalf("corrupt payload: err %v, want ErrCorruptSnapshot", err)
	}

	// Wrong magic: refused before any payload read.
	if _, err := ReadFramed(bytes.NewReader(raw), checkpointMagic); !errors.Is(err, ErrBadSnapshot) {
		t.Fatalf("wrong magic: err %v, want ErrBadSnapshot", err)
	}

	// Truncated frame.
	if _, err := ReadFramed(bytes.NewReader(raw[:len(raw)-3]), BundleManifestMagic); err == nil {
		t.Fatal("truncated frame accepted")
	}
}

func TestFramedMagicLength(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteFramed(&buf, "short", nil); err == nil {
		t.Fatal("short magic accepted on write")
	}
	if _, err := ReadFramed(&buf, "toolongmagicvalue"); err == nil {
		t.Fatal("long magic accepted on read")
	}
}

// lyingHeader is a complete 20-byte frame header that claims a 1 GiB
// payload and is followed by nothing.
func lyingHeader() []byte {
	hdr := binary.BigEndian.AppendUint64([]byte(checkpointMagic), 1<<30)
	return binary.BigEndian.AppendUint32(hdr, 0)
}

// TestReadFramedAllocatesWhatArrives pins the reader against a damaged
// length field: the lying header fails as corrupt after allocating one
// read chunk, not the gigabyte it claims.
func TestReadFramedAllocatesWhatArrives(t *testing.T) {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err := ReadFramed(bytes.NewReader(lyingHeader()), checkpointMagic)
	runtime.ReadMemStats(&after)
	if !errors.Is(err, ErrCorruptSnapshot) {
		t.Fatalf("err %v, want ErrCorruptSnapshot", err)
	}
	if got := after.TotalAlloc - before.TotalAlloc; got >= 4<<20 {
		t.Errorf("allocated %d bytes reading a 20-byte frame, want < 4 MiB", got)
	}
}

// TestReadFramedOneAllocationPerPayload pins the common case: a
// payload of at most one read chunk (the retrain checkpoint is
// ~650 KB) is read into a single allocation beside the header's.
func TestReadFramedOneAllocationPerPayload(t *testing.T) {
	var buf bytes.Buffer
	if err := writeFrame(&buf, checkpointMagic, make([]byte, frameReadChunk)); err != nil {
		t.Fatal(err)
	}
	rd := bytes.NewReader(buf.Bytes())
	allocs := testing.AllocsPerRun(10, func() {
		rd.Reset(buf.Bytes())
		if _, err := readFrame(rd, checkpointMagic); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 2 {
		t.Errorf("%v allocations per frame, want 2 (header and payload)", allocs)
	}
}

// FuzzReadFramed holds the frame layer to two properties: whatever
// writeFrame frames reads back unchanged, and arbitrary bytes never
// panic and fail only as a bad or a corrupt snapshot.
func FuzzReadFramed(f *testing.F) {
	var valid bytes.Buffer
	if err := writeFrame(&valid, checkpointMagic, []byte("payload")); err != nil {
		f.Fatal(err)
	}
	f.Add(valid.Bytes())
	f.Add([]byte{})
	f.Add([]byte(checkpointMagic))
	f.Add(lyingHeader())
	f.Fuzz(func(t *testing.T, data []byte) {
		var buf bytes.Buffer
		if err := writeFrame(&buf, checkpointMagic, data); err != nil {
			t.Fatal(err)
		}
		got, err := readFrame(&buf, checkpointMagic)
		if err != nil || !bytes.Equal(got, data) {
			t.Fatalf("round trip of %d bytes: got %d bytes, err %v", len(data), len(got), err)
		}
		if _, err := readFrame(bytes.NewReader(data), checkpointMagic); err != nil &&
			!errors.Is(err, ErrBadSnapshot) && !errors.Is(err, ErrCorruptSnapshot) {
			t.Fatalf("unexpected error class: %v", err)
		}
	})
}
