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
	Args any     `json:"args,omitempty"`
}

// spanArgs is an "X" event's args: the whole SpanRecord, with hex IDs
// matching the traceparent wire format and exact clock nanoseconds
// (ts and dur are rounded, relative microseconds). encoding/json sorts
// the attrs keys, so dumps of deterministic runs are byte-stable.
type spanArgs struct {
	Trace   string         `json:"trace"`
	Span    string         `json:"span"`
	Parent  string         `json:"parent,omitempty"`
	Remote  bool           `json:"remote,omitempty"`
	StartNs int64          `json:"start_ns"`
	DurNs   int64          `json:"dur_ns"`
	Status  string         `json:"status"`
	Note    string         `json:"note,omitempty"`
	Dropped uint8          `json:"dropped,omitempty"`
	Attrs   map[string]any `json:"attrs,omitempty"`
}

// eventArgs is an instant's args: the span event's clock nanoseconds.
type eventArgs struct {
	AtNs int64 `json:"at_ns"`
}

// WriteSpanTraceEvents renders flight-recorder span records (typically
// a Recorder snapshot) as an indented Chrome trace_event JSON array —
// the one span dump format, served by /debug/trace and written into
// diagnostic bundles. Each trace becomes one thread lane (tid assigned
// in first-appearance order of the records, which are expected in
// Snapshot order), spans are complete ("X") events whose args carry
// the record, and span events become instants ("i"). Timestamps are
// microseconds relative to the earliest span start, so dumps of a
// fake-clock run are deterministic.
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
		args := &spanArgs{
			Trace:   rec.Trace.String(),
			Span:    rec.ID.String(),
			Remote:  rec.Remote,
			StartNs: rec.Start,
			DurNs:   rec.End - rec.Start,
			Status:  rec.Status.String(),
			Note:    rec.Note,
			Dropped: rec.Dropped,
		}
		if rec.Parent != 0 {
			args.Parent = rec.Parent.String()
		}
		if rec.NAttrs > 0 {
			args.Attrs = make(map[string]any, rec.NAttrs)
			for _, a := range rec.Attrs[:rec.NAttrs] {
				if a.IsStr {
					args.Attrs[a.Key] = a.Str
				} else {
					args.Attrs[a.Key] = a.Int
				}
			}
		}
		events = append(events, traceEvent{
			Name: rec.Name,
			Cat:  "tipsy",
			Ph:   "X",
			PID:  1,
			TID:  tid,
			Ts:   float64(rec.Start-base) / 1e3,
			Dur:  float64(rec.End-rec.Start) / 1e3,
			Args: args,
		})
		for _, e := range rec.Events[:rec.NEvents] {
			events = append(events, traceEvent{
				Name: e.Name,
				Cat:  "tipsy",
				Ph:   "i",
				PID:  1,
				TID:  tid,
				Ts:   float64(e.At-base) / 1e3,
				Args: eventArgs{AtNs: e.At},
			})
		}
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(events)
}
