// Package fixture violates every determinism convention: wall-clock
// reads, the process-global RNG, a time-seeded generator, a seed from
// the process identity, and crypto/rand.
package fixture

import (
	crand "crypto/rand"
	"math/rand"
	"os"
	"time"
)

// Jitter draws from the global generator and stamps with the wall
// clock.
func Jitter() (int, time.Time) {
	n := rand.Intn(100)
	return n, time.Now()
}

// NewRNG seeds from the clock, so no two runs replay.
func NewRNG() *rand.Rand {
	return rand.New(rand.NewSource(time.Now().UnixNano()))
}

// Shuffle uses the global Shuffle.
func Shuffle(xs []int) {
	rand.Shuffle(len(xs), func(i, j int) { xs[i], xs[j] = xs[j], xs[i] })
}

// PidRNG seeds from the process identity: every same-seed test in one
// process agrees, and no two runs replay.
func PidRNG() *rand.Rand {
	return rand.New(rand.NewSource(int64(os.Getpid())))
}

// Entropy fills b from the operating system's entropy source.
func Entropy(b []byte) {
	crand.Read(b)
}
