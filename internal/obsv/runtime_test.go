package obsv

import (
	"runtime"
	"strings"
	"testing"
)

func TestRuntimeBridgeSample(t *testing.T) {
	reg := NewRegistry()
	b := NewRuntimeBridge(reg)
	b.Sample()
	if v := reg.Gauge("runtime_goroutines").Value(); v < 1 {
		t.Errorf("goroutines gauge %d, want >= 1", v)
	}
	if v := reg.Gauge("runtime_heap_bytes").Value(); v <= 0 {
		t.Errorf("heap gauge %d, want > 0", v)
	}

	// Force GC cycles between samples: the pause histogram observes
	// the cumulative bucket-count delta, so new pauses must appear.
	before := reg.Histogram("runtime_gc_pause_ns").Count()
	for i := 0; i < 3; i++ {
		runtime.GC()
	}
	b.Sample()
	if after := reg.Histogram("runtime_gc_pause_ns").Count(); after <= before {
		t.Errorf("gc pause count %d -> %d, want growth after forced GCs", before, after)
	}
	if v := reg.Gauge("runtime_gc_cycles").Value(); v < 3 {
		t.Errorf("gc cycles gauge %d, want >= 3", v)
	}

	// Re-sampling without new GC work must not double-count pauses.
	mid := reg.Histogram("runtime_gc_pause_ns").Count()
	b.Sample()
	// A concurrent GC could add one; a full re-observation would add
	// hundreds. Allow slack of a couple of pauses.
	if after := reg.Histogram("runtime_gc_pause_ns").Count(); after > mid+4 {
		t.Errorf("gc pause count jumped %d -> %d on an idle re-sample (cumulative counts re-observed?)", mid, after)
	}
}

func TestRuntimeBridgeInExposition(t *testing.T) {
	reg := NewRegistry()
	b := NewRuntimeBridge(reg)
	b.Sample()
	var sb strings.Builder
	reg.WriteText(&sb)
	for _, want := range []string{"runtime_heap_bytes", "runtime_goroutines", "runtime_gc_pause_ns", "runtime_sched_latency_ns"} {
		if !strings.Contains(sb.String(), want) {
			t.Errorf("exposition missing %s", want)
		}
	}
}

func TestSetInfoExposition(t *testing.T) {
	reg := NewRegistry()
	reg.SetInfo("tipsy_build_info", `go_version="go1.22",seed="1"`)
	// Re-setting the same info is allowed (e.g. config reload).
	reg.SetInfo("tipsy_build_info", `go_version="go1.22",seed="2"`)
	var sb strings.Builder
	reg.WriteText(&sb)
	want := `tipsy_build_info{go_version="go1.22",seed="2"} 1`
	if !strings.Contains(sb.String(), want) {
		t.Errorf("exposition missing %q:\n%s", want, sb.String())
	}
	// Infos stay out of Snapshot so comparing two seeded runs'
	// snapshots is unaffected by build identity.
	if snap := reg.Snapshot(); len(snap.Counters)+len(snap.Gauges)+len(snap.Histograms) != 0 {
		t.Errorf("info leaked into Snapshot: %+v", snap)
	}
}

func TestSetInfoNameCollisionPanics(t *testing.T) {
	reg := NewRegistry()
	reg.SetInfo("thing", `a="b"`)
	defer func() {
		if recover() == nil {
			t.Fatal("no panic registering counter over an info name")
		}
	}()
	reg.Counter("thing")
}

func TestLogRingTail(t *testing.T) {
	l := NewLogRing(0) // clamps to 1 KiB
	if got := l.Tail(); len(got) != 0 {
		t.Fatalf("empty ring tail %q", got)
	}
	l.Write([]byte("line one\n"))
	l.Write([]byte("line two\n"))
	if got := string(l.Tail()); got != "line one\nline two\n" {
		t.Fatalf("tail %q", got)
	}
}

func TestLogRingWraps(t *testing.T) {
	l := NewLogRing(1024)
	const lineText = "log line with some padding to force the ring around xxxxxxxxxx\n"
	for i := 0; i < 100; i++ {
		line := []byte(lineText)
		line[0] = byte('a' + i%26)
		l.Write(line)
	}
	got := l.Tail()
	if len(got) == 0 || len(got) > 1024 {
		t.Fatalf("tail length %d", len(got))
	}
	// After wrapping, the tail starts at a line boundary (the torn
	// first line is trimmed) and ends with the final write.
	if got[len(got)-1] != '\n' {
		t.Errorf("tail does not end at a line boundary")
	}
	lines := strings.Split(strings.TrimRight(string(got), "\n"), "\n")
	for i, ln := range lines {
		if len(ln) != len(lineText)-1 {
			t.Errorf("line %d torn: %q", i, ln)
		}
	}
}

func TestLogRingOversizedWrite(t *testing.T) {
	l := NewLogRing(1024)
	big := strings.Repeat("x", 2000) + "\nend\n"
	l.Write([]byte(big))
	got := string(l.Tail())
	if !strings.HasSuffix(got, "end\n") {
		t.Fatalf("oversized write lost its tail: %q", got)
	}
	if len(got) > 1024 {
		t.Fatalf("tail %d bytes exceeds capacity", len(got))
	}
}
