// Package chaos implements a deterministic fault-injecting message
// transport. It sits on the message hop between the simulated edge
// routers and the telemetry receiver (the IPFIX collector) and
// subjects every framed message to the failure modes a real WAN
// telemetry path exhibits: loss, duplication, reordering,
// byte corruption, truncation, and delivery delay.
//
// Every fault draw comes from a generator seeded by the scenario
// seed, so a chaos run is a pure function of (input messages, Config):
// the same seed and the same config replay the exact same fault
// schedule, which is what lets the soak tests assert byte-identical
// receiver stats across runs.
//
// A Link is fed synchronously: faults are applied and deliveries
// happen inside Send (and Flush), on the caller's goroutine, so a
// single-goroutine producer — like netsim's deterministic delivery
// loop — observes a fully deterministic delivery order. The delivery
// callback must not call back into the same Link.
package chaos

import (
	"io"
	"math/rand"
	"sort"
	"sync"
)

// Config holds per-link fault probabilities, drawn independently per
// message. The zero value is a faultless transport.
type Config struct {
	// Seed derives the fault schedule. Use ForKey to split one
	// scenario seed into independent per-channel schedules.
	Seed int64

	Drop     float64 // message silently discarded
	Dup      float64 // message delivered twice
	Reorder  float64 // message held back a few slots (bounded buffer)
	Corrupt  float64 // one byte flipped
	Truncate float64 // message cut short
	Delay    float64 // message held back longer than a reorder

	// ReorderDepth bounds how many subsequent messages may overtake a
	// reordered one (default 4).
	ReorderDepth int
	// DelayMax bounds how many subsequent messages may overtake a
	// delayed one (default 16).
	DelayMax int
}

// ForKey derives the config for one channel (one exporter) from the
// run's base config: probabilities are
// shared, the seed is split so per-channel schedules are independent
// but still a pure function of the scenario seed.
func (c Config) ForKey(key uint64) Config {
	c.Seed = int64(splitmix(uint64(c.Seed) ^ splitmix(key)))
	return c
}

// splitmix is the splitmix64 finalizer, used to decorrelate derived
// seeds.
func splitmix(z uint64) uint64 {
	z += 0x9e3779b97f4a7c15
	z ^= z >> 30
	z *= 0xbf58476d1ce4e5b9
	z ^= z >> 27
	z *= 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// Stats counts what the link did to the traffic it carried.
type Stats struct {
	Sent       uint64 // messages offered by the producer
	Delivered  uint64 // deliveries to the receiver (includes duplicates)
	Dropped    uint64
	Duplicated uint64
	Reordered  uint64
	Corrupted  uint64
	Truncated  uint64
	Delayed    uint64
}

// held is a message waiting in the reorder/delay buffer.
type held struct {
	release uint64 // slot at (or after) which the message is due
	seq     uint64 // tiebreak: admission order
	msg     []byte
}

// Link is one fault-injected message channel. Safe for concurrent
// use, but delivery order is only deterministic when Send is called
// from a single goroutine.
type Link struct {
	//tipsy:nolock set in NewLink and never written afterwards
	cfg Config
	//tipsy:nolock set in NewLink and never written afterwards
	deliver func([]byte)

	mu sync.Mutex
	//tipsy:guardedby mu
	rng *rand.Rand
	//tipsy:guardedby mu
	slot uint64 // messages offered so far
	//tipsy:guardedby mu
	seq uint64 // admission counter for stable hold ordering
	//tipsy:guardedby mu
	held []held
	//tipsy:guardedby mu
	stats Stats
}

// NewLink creates a chaos link delivering surviving messages to
// deliver. Messages are copied on admission, so the producer may
// reuse its buffer.
func NewLink(cfg Config, deliver func([]byte)) *Link {
	if cfg.ReorderDepth <= 0 {
		cfg.ReorderDepth = 4
	}
	if cfg.DelayMax <= 0 {
		cfg.DelayMax = 16
	}
	return &Link{
		cfg:     cfg,
		deliver: deliver,
		rng:     rand.New(rand.NewSource(cfg.Seed)),
	}
}

// Send offers one framed message to the link. Faults are drawn, the
// message is delivered zero, one, or two times — possibly mutated,
// possibly after later messages — and any held messages that have
// come due are released.
func (l *Link) Send(msg []byte) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.stats.Sent++
	l.slot++

	if l.cfg.Drop > 0 && l.rng.Float64() < l.cfg.Drop {
		l.stats.Dropped++
		l.releaseDue()
		return
	}

	m := append([]byte(nil), msg...)
	if l.cfg.Corrupt > 0 && len(m) > 0 && l.rng.Float64() < l.cfg.Corrupt {
		m[l.rng.Intn(len(m))] ^= byte(1 + l.rng.Intn(255))
		l.stats.Corrupted++
	}
	if l.cfg.Truncate > 0 && len(m) > 1 && l.rng.Float64() < l.cfg.Truncate {
		m = m[:1+l.rng.Intn(len(m)-1)]
		l.stats.Truncated++
	}

	dup := l.cfg.Dup > 0 && l.rng.Float64() < l.cfg.Dup
	if dup {
		l.stats.Duplicated++
	}

	// Scheduling: a reorder holds the message back a few slots, a
	// delay holds it back longer. In a synchronous transport both are
	// the same mechanism at different depths.
	switch {
	case l.cfg.Reorder > 0 && l.rng.Float64() < l.cfg.Reorder:
		l.stats.Reordered++
		l.hold(m, uint64(1+l.rng.Intn(l.cfg.ReorderDepth)))
	case l.cfg.Delay > 0 && l.rng.Float64() < l.cfg.Delay:
		l.stats.Delayed++
		l.hold(m, uint64(1+l.rng.Intn(l.cfg.DelayMax)))
	default:
		l.deliverLocked(m)
	}
	if dup {
		l.deliverLocked(m)
	}
	l.releaseDue()
}

// hold queues a message to be released once the slot counter passes
// release.
func (l *Link) hold(m []byte, after uint64) {
	l.seq++
	l.held = append(l.held, held{release: l.slot + after, seq: l.seq, msg: m})
}

// releaseDue delivers every held message whose release slot has
// passed, in (release, admission) order.
func (l *Link) releaseDue() {
	if len(l.held) == 0 {
		return
	}
	sort.Slice(l.held, func(i, j int) bool {
		if l.held[i].release != l.held[j].release {
			return l.held[i].release < l.held[j].release
		}
		return l.held[i].seq < l.held[j].seq
	})
	n := 0
	for n < len(l.held) && l.held[n].release <= l.slot {
		n++
	}
	for _, h := range l.held[:n] {
		l.deliverLocked(h.msg)
	}
	l.held = append(l.held[:0], l.held[n:]...)
}

// Flush releases every held message in order. Call it when the
// producer is done, mirroring a transport draining its queues.
func (l *Link) Flush() {
	l.mu.Lock()
	defer l.mu.Unlock()
	sort.Slice(l.held, func(i, j int) bool {
		if l.held[i].release != l.held[j].release {
			return l.held[i].release < l.held[j].release
		}
		return l.held[i].seq < l.held[j].seq
	})
	for _, h := range l.held {
		l.deliverLocked(h.msg)
	}
	l.held = l.held[:0]
}

func (l *Link) deliverLocked(m []byte) {
	l.stats.Delivered++
	if l.deliver != nil {
		l.deliver(m)
	}
}

// Pending reports how many messages sit in the reorder/delay buffer.
func (l *Link) Pending() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return len(l.held)
}

// Stats returns a snapshot of the link's counters.
func (l *Link) Stats() Stats {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.stats
}

// Writer adapts the link to io.Writer for producers that frame one
// message per Write call, like ipfix.Exporter. The write never
// fails: a chaos link swallows what it drops.
func (l *Link) Writer() io.Writer { return writerAdapter{l} }

type writerAdapter struct{ l *Link }

func (w writerAdapter) Write(p []byte) (int, error) {
	w.l.Send(p)
	return len(p), nil
}
