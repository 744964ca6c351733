// Package fixture exercises every guard discipline the guardedby
// rule must stay silent on: deferred unlocks spanning early returns,
// read locks for reads and write locks for writes, sync/atomic and
// reasoned //tipsy:nolock exemptions, constructor and zero-value
// initialization, locked helpers called only under the lock, and
// synchronous sort comparators inside the critical section.
package fixture

import (
	"sort"
	"sync"
	"sync/atomic"
)

// Counter locks every access to n; hits is an atomic and name is
// set-before-start configuration, both legitimately lock-free.
type Counter struct {
	mu sync.Mutex
	//tipsy:guardedby mu
	n    int
	hits atomic.Int64
	//tipsy:nolock set before any goroutine starts and never written afterwards
	name string
}

// NewCounter initializes pre-publication state: the struct is not yet
// shared, so no lock is needed.
func NewCounter(name string, start int) *Counter {
	c := &Counter{name: name}
	c.n = start
	return c
}

func (c *Counter) Inc() {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.hits.Add(1)
	c.incLocked()
}

// Add's deferred unlock spans the early return.
func (c *Counter) Add(v int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if v == 0 {
		return
	}
	c.n += v
}

// incLocked is only ever called under mu, so the interprocedural
// closure treats the lock as held at entry.
func (c *Counter) incLocked() {
	c.n++
}

func (c *Counter) Name() string { return c.name }

func (c *Counter) Hits() int64 { return c.hits.Load() }

// Board takes the read lock for reads and the write lock for writes;
// the sort comparator runs synchronously inside Record's critical
// section.
type Board struct {
	mu sync.RWMutex
	//tipsy:guardedby mu
	scores []int
}

func (b *Board) Top() int {
	b.mu.RLock()
	defer b.mu.RUnlock()
	if len(b.scores) == 0 {
		return 0
	}
	return b.scores[0]
}

func (b *Board) Record(v int) {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.scores = append(b.scores, v)
	sort.Slice(b.scores, func(i, j int) bool { return b.scores[i] > b.scores[j] })
}

// Rebuild fills a zero-value local: fresh unshared storage needs no
// lock until it is published.
func Rebuild(scores []int) *Board {
	var b Board
	b.scores = append(b.scores, scores...)
	return &b
}
