// Package fixture violates the lock-hygiene conventions: an early
// return that leaks the lock, and a lock that is never released.
package fixture

import "sync"

// Counter embeds its lock.
type Counter struct {
	mu sync.Mutex
	n  int
}

// Lookup leaks the read lock on the early return.
func (c *Counter) Lookup(want int) bool {
	c.mu.Lock()
	if c.n == want {
		return true
	}
	c.mu.Unlock()
	return false
}

// Seal takes the lock and never gives it back.
func (c *Counter) Seal() {
	c.mu.Lock()
	c.n = -1
}
