package obsv

import "net/http"

// Cross-process propagation uses the W3C Trace Context wire format:
//
//	traceparent: 00-<32 hex trace id>-<16 hex span id>-<2 hex flags>
//
// Flag bit 0 is "sampled". We emit version 00 with the flag set, since
// a tracer records every span, and accept any non-reserved version
// with the version-00 field layout; uppercase hex and zero trace/span
// IDs are invalid per the spec.

// TraceparentHeader is the HTTP header carrying the span context.
const TraceparentHeader = "traceparent"

const traceparentLen = 55 // "00-" + 32 + "-" + 16 + "-" + 2

// Traceparent renders the context in wire form.
func (sc SpanContext) Traceparent() string {
	var b [traceparentLen]byte
	copy(b[:], "00-")
	hex64(sc.Trace.Hi, b[3:19])
	hex64(sc.Trace.Lo, b[19:35])
	b[35] = '-'
	hex64(uint64(sc.Span), b[36:52])
	copy(b[52:], "-01")
	return string(b[:])
}

// ParseTraceparent parses a traceparent value. ok is false for
// malformed input, the reserved version ff, or zero trace/span IDs.
// The flags must be hex but do not decide recording: the caller's
// sampled bit is ignored.
func ParseTraceparent(s string) (sc SpanContext, ok bool) {
	if len(s) != traceparentLen || s[2] != '-' || s[35] != '-' || s[52] != '-' {
		return SpanContext{}, false
	}
	ver, ok := parseHex(s[0:2])
	if !ok || ver == 0xff {
		return SpanContext{}, false
	}
	hi, ok1 := parseHex(s[3:19])
	lo, ok2 := parseHex(s[19:35])
	span, ok3 := parseHex(s[36:52])
	_, ok4 := parseHex(s[53:55])
	if !ok1 || !ok2 || !ok3 || !ok4 {
		return SpanContext{}, false
	}
	trace := TraceID{Hi: hi, Lo: lo}
	if trace.IsZero() || span == 0 {
		return SpanContext{}, false
	}
	return SpanContext{Trace: trace, Span: SpanID(span)}, true
}

// ParseTraceID parses a bare 32-hex-digit trace ID (the /debug/trace
// query form).
func ParseTraceID(s string) (TraceID, bool) {
	if len(s) != 32 {
		return TraceID{}, false
	}
	hi, ok1 := parseHex(s[:16])
	lo, ok2 := parseHex(s[16:])
	if !ok1 || !ok2 {
		return TraceID{}, false
	}
	return TraceID{Hi: hi, Lo: lo}, true
}

// parseHex decodes lowercase hex only — the spec treats uppercase as
// invalid, and strconv would accept it.
func parseHex(s string) (uint64, bool) {
	var v uint64
	for i := 0; i < len(s); i++ {
		c := s[i]
		var d uint64
		switch {
		case c >= '0' && c <= '9':
			d = uint64(c - '0')
		case c >= 'a' && c <= 'f':
			d = uint64(c-'a') + 10
		default:
			return 0, false
		}
		v = v<<4 | d
	}
	return v, true
}

// InjectTraceparent writes sc into h — called on every outbound hop
// (and on responses, so callers can correlate their request with the
// server's flight recorder).
func InjectTraceparent(h http.Header, sc SpanContext) {
	if sc.Trace.IsZero() {
		return
	}
	h.Set(TraceparentHeader, sc.Traceparent())
}

// ExtractTraceparent reads a span context from h.
func ExtractTraceparent(h http.Header) (SpanContext, bool) {
	return ParseTraceparent(h.Get(TraceparentHeader))
}
