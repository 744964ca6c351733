package ipfix

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"testing"

	"tipsy/internal/obsv"
)

var updateGolden = flag.Bool("update", false, "rewrite golden files")

// splitFrames cuts an exporter byte stream into framed messages.
func splitFrames(t *testing.T, stream []byte) [][]byte {
	t.Helper()
	var frames [][]byte
	for off := 0; off < len(stream); {
		n := WireLen(stream[off:])
		if n <= 0 || off+n > len(stream) {
			t.Fatalf("bad frame at offset %d", off)
		}
		frames = append(frames, stream[off:off+n])
		off += n
	}
	return frames
}

// TestMetricsGolden locks in the /metrics text exposition for a fully
// deterministic collector run that exercises every counter class:
// clean delivery, a sequence gap, a reordered refill, and a
// quarantined message. The registry's sorted iteration order is what
// makes this goldenable at all.
//
// Regenerate with: go test ./internal/ipfix -run TestMetricsGolden -update
func TestMetricsGolden(t *testing.T) {
	reg := obsv.NewRegistry()
	c := NewCollectorOn(reg)

	// A deterministic stream: 4 messages of 5 flow records each.
	var buf bytes.Buffer
	e := NewExporter(&buf, 42)
	for i := 0; i < 20; i++ {
		rec := FlowRecord{
			SrcAddr: 0x0a000000 + uint32(i), DstAddr: 0x0b000001,
			Octets: uint64(1000 + i), Packets: 2, Ingress: 3,
			SrcAS: 64500, StartSecs: uint32(100 + i), EndSecs: uint32(160 + i),
		}
		if err := e.Export(&rec, uint32(1000+i)); err != nil {
			t.Fatal(err)
		}
		if (i+1)%5 == 0 {
			if err := e.Flush(uint32(1000 + i)); err != nil {
				t.Fatal(err)
			}
		}
	}
	frames := splitFrames(t, buf.Bytes())
	if len(frames) != 4 {
		t.Fatalf("got %d frames, want 4", len(frames))
	}

	sink := func(domain uint32, recs []FlowRecord) {}
	// Deliver 0, skip 1 (a sequence gap opens), deliver 2 and 3, then
	// deliver 1 late: reordered, and the gap refills.
	for _, i := range []int{0, 2, 3, 1} {
		if err := c.HandleMessageBatch(frames[i], sink); err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
	}
	// One corrupted message: quarantined, nothing else moves.
	bad := append([]byte(nil), frames[0]...)
	bad[0], bad[1] = 0xff, 0xfe
	if err := c.HandleMessageBatch(bad, sink); err == nil {
		t.Fatal("corrupted message accepted")
	}

	var out bytes.Buffer
	reg.WriteText(&out)

	golden := filepath.Join("testdata", "metrics.golden")
	if *updateGolden {
		if err := os.WriteFile(golden, out.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("read golden (run with -update to create): %v", err)
	}
	if !bytes.Equal(out.Bytes(), want) {
		t.Errorf("metrics text drifted from golden:\n--- got ---\n%s--- want ---\n%s", out.Bytes(), want)
	}

	// Cross-check the golden against the stats decomposition: the net
	// loss visible to callers is lost minus refilled.
	st := c.Stats()
	if st.Lost != 0 {
		t.Errorf("net Lost = %d after full refill, want 0", st.Lost)
	}
	if st.Quarantined != 1 || st.Reordered != 1 {
		t.Errorf("stats = %+v", st)
	}
}
