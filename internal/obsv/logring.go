package obsv

import (
	"bytes"
	"sync"
)

// LogRing is a fixed-size circular io.Writer: tee slog's output into
// one and Tail returns the most recent bytes, so a diagnostic bundle
// can include the log lines leading up to an incident without keeping
// unbounded history. Writes never block beyond the mutex and never
// allocate; old bytes are silently overwritten.
type LogRing struct {
	mu sync.Mutex
	// guarded by mu
	buf []byte
	// guarded by mu
	w int // next write offset
	// guarded by mu
	full bool
}

// NewLogRing builds a ring holding the last capacity bytes (minimum
// 1 KiB).
func NewLogRing(capacity int) *LogRing {
	if capacity < 1024 {
		capacity = 1024
	}
	return &LogRing{buf: make([]byte, capacity)}
}

// Write implements io.Writer; it always succeeds.
func (l *LogRing) Write(p []byte) (int, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	n := len(p)
	if n == 0 {
		return 0, nil
	}
	if n >= len(l.buf) {
		// One write larger than the whole ring: keep its tail.
		copy(l.buf, p[n-len(l.buf):])
		l.w, l.full = 0, true
		return n, nil
	}
	c := copy(l.buf[l.w:], p)
	if c < n {
		copy(l.buf, p[c:])
	}
	l.w += n
	if l.w >= len(l.buf) {
		l.w -= len(l.buf)
		l.full = true
	}
	return n, nil
}

// Tail returns a copy of the buffered bytes, oldest first. Once the
// ring has wrapped, the (usually torn) first line is trimmed so the
// result starts at a line boundary.
func (l *LogRing) Tail() []byte {
	l.mu.Lock()
	defer l.mu.Unlock()
	if !l.full {
		out := make([]byte, l.w)
		copy(out, l.buf[:l.w])
		return out
	}
	out := make([]byte, 0, len(l.buf))
	out = append(out, l.buf[l.w:]...)
	out = append(out, l.buf[:l.w]...)
	if i := bytes.IndexByte(out, '\n'); i >= 0 && i+1 < len(out) {
		out = out[i+1:]
	}
	return out
}
