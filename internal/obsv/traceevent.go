package obsv

import (
	"encoding/json"
	"io"
)

// traceEvent is one Chrome trace_event entry: a complete ("X") slice
// with microsecond timestamp and duration, the format Perfetto and
// chrome://tracing load directly.
type traceEvent struct {
	Name string  `json:"name"`
	Cat  string  `json:"cat"`
	Ph   string  `json:"ph"`
	PID  int     `json:"pid"`
	TID  int     `json:"tid"`
	Ts   float64 `json:"ts"`  // microseconds from the earliest trace start
	Dur  float64 `json:"dur"` // microseconds
}

// WriteSpanTraceEvents renders flight-recorder span records as a
// Chrome trace_event JSON array: each trace becomes one thread lane
// (tid assigned in first-appearance order of the records, which are
// expected in Snapshot order), spans are complete ("X") events, and
// span events become instants ("i"). Timestamps are microseconds
// relative to the earliest span start, so dumps of a fake-clock run
// are deterministic.
func WriteSpanTraceEvents(w io.Writer, recs []SpanRecord) error {
	events := []traceEvent{}
	var base int64
	for i := range recs {
		if i == 0 || recs[i].Start < base {
			base = recs[i].Start
		}
	}
	tids := make(map[TraceID]int, len(recs))
	for i := range recs {
		rec := &recs[i]
		tid, ok := tids[rec.Trace]
		if !ok {
			tid = len(tids) + 1
			tids[rec.Trace] = tid
		}
		events = append(events, traceEvent{
			Name: rec.Name,
			Cat:  "tipsy",
			Ph:   "X",
			PID:  1,
			TID:  tid,
			Ts:   float64(rec.Start-base) / 1e3,
			Dur:  float64(rec.End-rec.Start) / 1e3,
		})
		for _, e := range rec.Events[:rec.NEvents] {
			events = append(events, traceEvent{
				Name: e.Name,
				Cat:  "tipsy",
				Ph:   "i",
				PID:  1,
				TID:  tid,
				Ts:   float64(e.At-base) / 1e3,
			})
		}
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(events)
}
