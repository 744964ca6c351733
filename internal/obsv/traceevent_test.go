package obsv

import (
	"bytes"
	"encoding/json"
	"testing"
)

func TestWriteTraceEvents(t *testing.T) {
	// Trace A starts at t=0 with two 1ms spans, the second carrying an
	// event; trace B starts 500µs later with one 2ms span.
	a, b := TraceID{Lo: 1}, TraceID{Lo: 2}
	predict := SpanRecord{Trace: a, Name: "predict", Start: 1_000_000, End: 2_000_000, NEvents: 1}
	predict.Events[0] = SpanEvent{Name: "demote_ensemble", At: 1_250_000}
	recs := []SpanRecord{
		{Trace: a, Name: "encode", Start: 0, End: 1_000_000},
		{Trace: b, Name: "retrain", Start: 500_000, End: 2_500_000},
		predict,
	}

	var buf bytes.Buffer
	if err := WriteSpanTraceEvents(&buf, recs); err != nil {
		t.Fatal(err)
	}
	var events []map[string]any
	if err := json.Unmarshal(buf.Bytes(), &events); err != nil {
		t.Fatalf("output is not a JSON array: %v\n%s", err, buf.String())
	}
	if len(events) != 4 {
		t.Fatalf("got %d events, want 4:\n%s", len(events), buf.String())
	}

	check := func(i int, ph, name string, tid, ts, dur float64) {
		t.Helper()
		e := events[i]
		if e["ph"] != ph || e["name"] != name || e["tid"] != tid || e["ts"] != ts || e["dur"] != dur {
			t.Errorf("event %d = %v, want ph=%s name=%s tid=%v ts=%v dur=%v", i, e, ph, name, tid, ts, dur)
		}
		if e["cat"] != "tipsy" || e["pid"] != 1.0 {
			t.Errorf("event %d envelope = %v", i, e)
		}
	}
	// Each trace is one lane, numbered by first appearance; every
	// timestamp is relative to the earliest span start.
	check(0, "X", "encode", 1, 0, 1000)
	check(1, "X", "retrain", 2, 500, 2000)
	check(2, "X", "predict", 1, 1000, 1000)
	check(3, "i", "demote_ensemble", 1, 1250, 0)
}

func TestWriteTraceEventsEmpty(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteSpanTraceEvents(&buf, nil); err != nil {
		t.Fatal(err)
	}
	var events []any
	if err := json.Unmarshal(buf.Bytes(), &events); err != nil {
		t.Fatalf("empty output is not a JSON array: %v\n%s", err, buf.String())
	}
	if len(events) != 0 {
		t.Errorf("no spans produced events: %v", events)
	}
}
