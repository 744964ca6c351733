package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"runtime"
	rpprof "runtime/pprof"
	"strconv"
	"time"

	"tipsy/internal/bundle"
	"tipsy/internal/monitor"
	"tipsy/internal/obsv"
)

// This file is tipsyd's diagnostic surface: the flight-recorder dump
// behind /debug/trace and the diagnostic bundles written on demand
// (/debug/bundle) and whenever a quality alarm fires.

// handleTrace dumps the flight recorder as Chrome trace_event JSON,
// loadable in about:tracing / Perfetto, each span's record in its
// args. ?trace=<32 hex digits> filters to one trace.
func (s *server) handleTrace(w http.ResponseWriter, r *http.Request) {
	var recs []obsv.SpanRecord
	if q := r.URL.Query().Get("trace"); q != "" {
		id, ok := obsv.ParseTraceID(q)
		if !ok {
			http.Error(w, "bad trace id", http.StatusBadRequest)
			return
		}
		recs = s.flight.TraceSpans(id)
	} else {
		recs = s.flight.Snapshot()
	}
	w.Header().Set("Content-Type", "application/json")
	if err := obsv.WriteSpanTraceEvents(w, recs); err != nil {
		s.logHTTP.Error("write trace dump", "err", err)
	}
}

// handleBundle writes a diagnostic bundle on demand, verifies it the
// way an operator's tooling would, and returns its path and manifest.
func (s *server) handleBundle(w http.ResponseWriter, r *http.Request) {
	dir, err := s.writeBundle("manual")
	if err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	man, err := bundle.Verify(dir)
	if err != nil {
		http.Error(w, fmt.Sprintf("bundle failed verification: %v", err), http.StatusInternalServerError)
		return
	}
	s.writeJSON(w, map[string]any{"dir": dir, "manifest": man})
}

// onAlarm is the monitor's alarm hook: every transition into firing
// snapshots a diagnostic bundle, so the spans, metrics, and logs that
// led up to the incident are preserved even if the operator only
// looks hours later.
func (s *server) onAlarm(st monitor.AlarmStatus) {
	if s.bundleDir == "" {
		s.logBundle.Warn("alarm fired but bundles disabled", "alarm", st.Name)
		return
	}
	if _, err := s.writeBundle("alarm-" + st.Name); err != nil {
		s.logBundle.Error("bundle write failed", "alarm", st.Name, "err", err)
	}
}

// writeBundle snapshots the daemon's diagnostic state into a new
// bundle directory under s.bundleDir and returns its path. Writes are
// serialized: concurrent alarms and manual requests queue rather than
// interleave, and bundleSeq keeps names unique even when two bundles
// share a timestamp. The name and the manifest's CreatedNs read the
// wall clock, not the span clock: they are wall-time stamps, and must
// agree with log_tail.txt's after a clock step or a suspend, which the
// process-start-anchored span clock does not see.
func (s *server) writeBundle(reason string) (string, error) {
	if s.bundleDir == "" {
		return "", errors.New("bundle directory disabled")
	}
	s.bundleMu.Lock()
	defer s.bundleMu.Unlock()
	s.bundleSeq++
	now := time.Now().UnixNano()
	// Snapshot the flight recorder and quality report once, up front,
	// so every section of the bundle describes the same instant.
	spans := s.flight.Snapshot()
	quality := s.mon.Quality()
	sections := []bundle.Section{
		{Name: "metrics.prom", Write: func(w io.Writer) error {
			s.rtb.Sample()
			s.reg.WriteText(w)
			return nil
		}},
		{Name: "quality.json", Write: func(w io.Writer) error {
			enc := json.NewEncoder(w)
			enc.SetIndent("", "  ")
			return enc.Encode(quality)
		}},
		{Name: "trace_events.json", Write: func(w io.Writer) error {
			return obsv.WriteSpanTraceEvents(w, spans)
		}},
		{Name: "log_tail.txt", Write: func(w io.Writer) error {
			_, err := w.Write(s.logRing.Tail())
			return err
		}},
		{Name: "heap.pprof", Write: func(w io.Writer) error {
			return rpprof.Lookup("heap").WriteTo(w, 0)
		}},
		{Name: "goroutine.pprof", Write: func(w io.Writer) error {
			return rpprof.Lookup("goroutine").WriteTo(w, 0)
		}},
	}
	name := fmt.Sprintf("bundle-%d-%04d-%s", now, s.bundleSeq, sanitizeReason(reason))
	dir, err := bundle.Write(s.bundleDir, name, reason, now, s.buildManifest(), sections)
	if err != nil {
		return "", err
	}
	s.met.bundles.Inc()
	s.logBundle.Info("diagnostic bundle written", "dir", dir, "reason", reason)
	return dir, nil
}

// buildManifest collects the build/config identity every bundle's
// manifest carries — enough to answer "what exactly was running" from
// the bundle alone.
func (s *server) buildManifest() map[string]string {
	return map[string]string{
		"go_version":      runtime.Version(),
		"goos":            runtime.GOOS,
		"goarch":          runtime.GOARCH,
		"version":         buildVersion(),
		"seed":            strconv.FormatInt(s.seed, 10),
		"train_days":      strconv.Itoa(s.trainDays),
		"simulated_hour":  strconv.FormatInt(int64(s.simHour()), 10),
		"trained_at_hour": strconv.FormatInt(int64(s.gen.Load().TrainedAt()), 10),
		"checkpoint":      s.checkpointPath,
	}
}

// sanitizeReason makes an alarm name safe as a path component:
// lowercase alphanumerics, dash, and underscore, capped at 40 bytes.
func sanitizeReason(reason string) string {
	b := []byte(reason)
	for i, c := range b {
		switch {
		case c >= 'a' && c <= 'z', c >= '0' && c <= '9', c == '-', c == '_':
		case c >= 'A' && c <= 'Z':
			b[i] = c + 'a' - 'A'
		default:
			b[i] = '_'
		}
	}
	if len(b) > 40 {
		b = b[:40]
	}
	return string(b)
}
