package core

import (
	"bytes"
	"encoding/gob"
	"errors"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"testing"

	"tipsy/internal/features"
	"tipsy/internal/wan"
)

// TestHistoricalSaveLoad round-trips one model through a one-model
// checkpoint and requires the same predictions back, with and without
// exclusions.
func TestHistoricalSaveLoad(t *testing.T) {
	f1 := flow(64496, 0x0b000100, 3, 9, 1)
	f2 := flow(174, 0x0b000200, 5, 9, 2)
	recs := []features.Record{
		rec(f1, 1, 700), rec(f1, 2, 300), rec(f2, 9, 50),
	}
	orig := TrainHistorical(features.SetAP, recs, DefaultHistOpts())

	ck, err := LoadCheckpoint(bytes.NewReader(saveCheckpoint(t, &Checkpoint{Models: []*Historical{orig}})))
	if err != nil {
		t.Fatal(err)
	}
	back := ck.Models[0]
	if back.Name() != orig.Name() || back.NumTuples() != orig.NumTuples() {
		t.Fatalf("metadata mismatch: %s/%d vs %s/%d",
			back.Name(), back.NumTuples(), orig.Name(), orig.NumTuples())
	}
	for _, f := range []features.FlowFeatures{f1, f2} {
		a := orig.Predict(Query{Flow: f, K: 3})
		b := back.Predict(Query{Flow: f, K: 3})
		if !reflect.DeepEqual(a, b) {
			t.Errorf("predictions diverge after round trip: %+v vs %+v", a, b)
		}
	}
	// Exclusions behave identically too.
	excl := func(l wan.LinkID) bool { return l == 1 }
	a := orig.Predict(Query{Flow: f1, K: 3, Exclude: excl})
	b := back.Predict(Query{Flow: f1, K: 3, Exclude: excl})
	if !reflect.DeepEqual(a, b) {
		t.Error("excluded predictions diverge after round trip")
	}
}

func TestLoadCheckpointRejectsGarbage(t *testing.T) {
	if _, err := LoadCheckpoint(bytes.NewReader([]byte("not a model"))); err == nil {
		t.Error("garbage should not load")
	}
	// Longer garbage that could swallow a whole frame header.
	junk := bytes.Repeat([]byte{0xA5}, 4096)
	if _, err := LoadCheckpoint(bytes.NewReader(junk)); !errors.Is(err, ErrBadSnapshot) {
		t.Errorf("err = %v, want ErrBadSnapshot", err)
	}
}

// oneModelCheckpoint is a checkpoint of one model fitted on a two-link
// flow.
func oneModelCheckpoint() *Checkpoint {
	f1 := flow(64496, 0x0b000100, 3, 9, 1)
	recs := []features.Record{rec(f1, 1, 700), rec(f1, 2, 300)}
	return &Checkpoint{TrainedAt: 24, Models: []*Historical{TrainHistorical(features.SetAP, recs, DefaultHistOpts())}}
}

func TestLoadCheckpointRejectsTruncation(t *testing.T) {
	// Every proper prefix of a valid checkpoint must fail descriptively —
	// the shape a crash mid-write (without atomic rename) would leave.
	full := saveCheckpoint(t, oneModelCheckpoint())
	for cut := 0; cut < len(full); cut += 7 {
		if _, err := LoadCheckpoint(bytes.NewReader(full[:cut])); err == nil {
			t.Fatalf("truncation at %d/%d loaded successfully", cut, len(full))
		}
	}
}

func TestLoadCheckpointRejectsBitrot(t *testing.T) {
	full := saveCheckpoint(t, oneModelCheckpoint())
	// Flip one payload byte: the checksum must catch it.
	rotten := append([]byte(nil), full...)
	rotten[len(rotten)-3] ^= 0x40
	if _, err := LoadCheckpoint(bytes.NewReader(rotten)); !errors.Is(err, ErrCorruptSnapshot) {
		t.Errorf("err = %v, want ErrCorruptSnapshot", err)
	}
}

func TestSaveFileAtomicRoundTrip(t *testing.T) {
	ck := oneModelCheckpoint()
	path := filepath.Join(t.TempDir(), "model.bin")
	if err := ck.SaveFile(path); err != nil {
		t.Fatal(err)
	}
	// Overwrite with a second save: rename must replace in place.
	if err := ck.SaveFile(path); err != nil {
		t.Fatal(err)
	}
	back, err := LoadCheckpointFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(back, ck) {
		t.Error("rewritten checkpoint loads as a different one")
	}
	// No temp litter left behind.
	entries, err := os.ReadDir(filepath.Dir(path))
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 {
		t.Errorf("directory holds %d entries, want just the checkpoint", len(entries))
	}
}

func TestCheckpointRoundTrip(t *testing.T) {
	f1 := flow(64496, 0x0b000100, 3, 9, 1)
	f2 := flow(174, 0x0b000200, 5, 9, 2)
	recs := []features.Record{rec(f1, 1, 700), rec(f1, 2, 300), rec(f2, 9, 50)}
	ck := &Checkpoint{
		TrainedAt: 96,
		Models: []*Historical{
			TrainHistorical(features.SetAP, recs, DefaultHistOpts()),
			TrainHistorical(features.SetA, recs, DefaultHistOpts()),
		},
	}
	path := filepath.Join(t.TempDir(), "ck.bin")
	if err := ck.SaveFile(path); err != nil {
		t.Fatal(err)
	}
	back, err := LoadCheckpointFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if back.TrainedAt != 96 || len(back.Models) != 2 {
		t.Fatalf("checkpoint metadata: trainedAt=%d models=%d", back.TrainedAt, len(back.Models))
	}
	for i, m := range back.Models {
		if m.Name() != ck.Models[i].Name() {
			t.Errorf("model %d is %s, want %s", i, m.Name(), ck.Models[i].Name())
		}
		a := ck.Models[i].Predict(Query{Flow: f1, K: 3})
		b := m.Predict(Query{Flow: f1, K: 3})
		if !reflect.DeepEqual(a, b) {
			t.Errorf("model %d predictions diverge after checkpoint round trip", i)
		}
	}
}

// manyTupleCheckpoint holds three models over 64 flows: enough tuples
// that a save which followed map iteration order would show it.
func manyTupleCheckpoint() *Checkpoint {
	var recs []features.Record
	for i := range 64 {
		f := flow(uint32(64496+i%8), 0x0b000000|uint32(i)<<8, uint16(i%5), uint16(i%3), uint8(i%2))
		recs = append(recs, rec(f, wan.LinkID(i%7), float64(100+i)), rec(f, wan.LinkID(i%7+1), 50))
	}
	ck := &Checkpoint{TrainedAt: 96}
	for _, set := range []features.Set{features.SetAP, features.SetAL, features.SetA} {
		ck.Models = append(ck.Models, TrainHistorical(set, recs, DefaultHistOpts()))
	}
	return ck
}

func saveCheckpoint(t testing.TB, ck *Checkpoint) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := ck.Save(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestCheckpointBytesAreAFunctionOfTheModel: one model saves to one
// byte string, and a loaded checkpoint saves back to the bytes it was
// loaded from.
func TestCheckpointBytesAreAFunctionOfTheModel(t *testing.T) {
	ck := manyTupleCheckpoint()
	first := saveCheckpoint(t, ck)
	if again := saveCheckpoint(t, ck); !bytes.Equal(first, again) {
		t.Fatalf("two saves of one checkpoint differ (%d and %d bytes)", len(first), len(again))
	}
	back, err := LoadCheckpoint(bytes.NewReader(first))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(back, ck) {
		t.Fatal("loaded checkpoint differs from the saved one")
	}
	if resaved := saveCheckpoint(t, back); !bytes.Equal(first, resaved) {
		t.Fatal("save -> load -> save changed the bytes")
	}
}

// frameCheckpoint frames a hand-built snapshot the way Save does.
func frameCheckpoint(t testing.TB, snap checkpointSnapshot) []byte {
	t.Helper()
	var payload, out bytes.Buffer
	if err := gob.NewEncoder(&payload).Encode(snap); err != nil {
		t.Fatal(err)
	}
	if err := writeFrame(&out, checkpointMagic, payload.Bytes()); err != nil {
		t.Fatal(err)
	}
	return out.Bytes()
}

// badColumns are model columns the loader must reject. Each passes the
// frame's checksum; the columns themselves are not a model.
func badColumns() []struct {
	name string
	snap histSnapshot
} {
	a, b := features.Tuple{AS: 1}, features.Tuple{AS: 2}
	preds := []Prediction{{Link: 1, Frac: 1}, {Link: 2, Frac: 0.5}, {Link: 3, Frac: 0.5}}
	cols := func(tuples []features.Tuple, ends []int32, preds []Prediction) histSnapshot {
		return histSnapshot{Version: snapshotVersion, Set: features.SetA, Tuples: tuples, Ends: ends, Preds: preds}
	}
	withSet := func(set features.Set, snap histSnapshot) histSnapshot {
		snap.Set = set
		return snap
	}
	return []struct {
		name string
		snap histSnapshot
	}{
		{"unsorted tuples", cols([]features.Tuple{b, a}, []int32{1, 3}, preds)},
		{"repeated tuple", cols([]features.Tuple{a, a}, []int32{1, 3}, preds)},
		{"fewer ends than tuples", cols([]features.Tuple{a, b}, []int32{1}, preds)},
		{"more ends than tuples", cols([]features.Tuple{a}, []int32{1, 3}, preds)},
		{"decreasing ends", cols([]features.Tuple{a, b}, []int32{3, 1}, preds)},
		{"end past the links", cols([]features.Tuple{a, b}, []int32{1, 4}, preds)},
		{"negative end", cols([]features.Tuple{a, b}, []int32{-1, 3}, preds)},
		{"fraction above one", cols([]features.Tuple{a}, []int32{1}, []Prediction{{Link: 1, Frac: 1.5}})},
		{"NaN fraction", cols([]features.Tuple{a}, []int32{1}, []Prediction{{Link: 1, Frac: math.NaN()}})},
		{"links past the last end", cols([]features.Tuple{a, b}, []int32{1, 2}, preds)},
		{"links without tuples", cols(nil, nil, preds[:1])},
		{"unknown feature set", withSet(7, cols([]features.Tuple{a, b}, []int32{1, 3}, preds))},
		{"tuple outside its set", cols([]features.Tuple{a, {AS: 2, Prefix: 0x0b000100}}, []int32{1, 3}, preds)},
		{"tuple outside AL", withSet(features.SetAL, cols([]features.Tuple{{AS: 1, Loc: 4}, {AS: 2, Loc: 4, Prefix: 0x0b000100}}, []int32{1, 3}, preds))},
	}
}

func TestLoadCheckpointRejectsBadColumns(t *testing.T) {
	for _, c := range badColumns() {
		t.Run(c.name, func(t *testing.T) {
			raw := frameCheckpoint(t, checkpointSnapshot{Version: snapshotVersion, Models: []histSnapshot{c.snap}})
			if _, err := LoadCheckpoint(bytes.NewReader(raw)); !errors.Is(err, ErrCorruptSnapshot) {
				t.Fatalf("err = %v, want ErrCorruptSnapshot", err)
			}
		})
	}
	a, b := features.Tuple{AS: 1}, features.Tuple{AS: 2}
	preds := []Prediction{{Link: 1, Frac: 1}, {Link: 2, Frac: 0.5}, {Link: 3, Frac: 0.5}}
	// The same columns in order load.
	raw := frameCheckpoint(t, checkpointSnapshot{Version: snapshotVersion, Models: []histSnapshot{{
		Version: snapshotVersion, Set: features.SetA, Tuples: []features.Tuple{a, b}, Ends: []int32{1, 3}, Preds: preds,
	}}})
	if _, err := LoadCheckpoint(bytes.NewReader(raw)); err != nil {
		t.Fatal(err)
	}
}

// FuzzLoadCheckpoint holds the checkpoint loader to its contract on
// arbitrary input: it fails only as a bad or corrupt snapshot or an
// unsupported version, never panics, allocates in proportion to the
// bytes it was given, and whatever it accepts saves to bytes that load
// back equal.
func FuzzLoadCheckpoint(f *testing.F) {
	f1 := flow(64496, 0x0b000100, 3, 9, 1)
	recs := []features.Record{rec(f1, 1, 700), rec(f1, 2, 300), rec(flow(174, 0x0b000200, 5, 9, 2), 9, 50)}
	full := saveCheckpoint(f, &Checkpoint{TrainedAt: 96, Models: []*Historical{
		TrainHistorical(features.SetAP, recs, DefaultHistOpts()),
		TrainHistorical(features.SetA, recs, DefaultHistOpts()),
	}})
	payload := full[frameHeaderLen:]
	f.Add(full)
	for _, cut := range []int{0, 1, len(payload) / 3, len(payload) / 2, len(payload) - 1, len(payload)} {
		f.Add(payload[:cut])
	}
	for _, c := range badColumns() {
		f.Add(frameCheckpoint(f, checkpointSnapshot{Version: snapshotVersion, Models: []histSnapshot{c.snap}}))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		// The input is tried as a whole file and as the payload of an
		// intact frame, which is how a mutation reaches the decoder past
		// the checksum.
		var framed bytes.Buffer
		if err := writeFrame(&framed, checkpointMagic, data); err != nil {
			t.Fatal(err)
		}
		for _, in := range [][]byte{data, framed.Bytes()} {
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			ck, err := LoadCheckpoint(bytes.NewReader(in))
			runtime.ReadMemStats(&after)
			// gob caps what one claimed slice length allocates before its
			// elements arrive at 10 MiB, and the loader sizes nothing from
			// a count it has not decoded.
			if got, limit := after.TotalAlloc-before.TotalAlloc, uint64(32<<20+64*len(in)); got > limit {
				t.Fatalf("loading %d bytes allocated %d, limit %d", len(in), got, limit)
			}
			if err != nil {
				if !errors.Is(err, ErrBadSnapshot) && !errors.Is(err, ErrCorruptSnapshot) && !errors.As(err, new(versionError)) {
					t.Fatalf("unexpected error class: %v", err)
				}
				continue
			}
			back, err := LoadCheckpoint(bytes.NewReader(saveCheckpoint(t, ck)))
			if err != nil {
				t.Fatalf("re-saved checkpoint does not load: %v", err)
			}
			if !reflect.DeepEqual(back, ck) {
				t.Fatalf("re-saved checkpoint loads as\n%+v\nnot\n%+v", back, ck)
			}
		}
	})
}
