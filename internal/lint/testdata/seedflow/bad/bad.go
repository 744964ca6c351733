// Package fixture launders nondeterministic seeds in every way the
// seedflow rule must see through: locals, arithmetic, in-module
// helpers, process identity, entropy, and closures.
package fixture

import (
	crand "crypto/rand"
	"math/big"
	"math/rand"
	"os"
	"time"
)

// Local launders the wall clock through a local variable, which the
// purely syntactic determinism check cannot follow.
func Local() *rand.Rand {
	seed := time.Now().UnixNano()
	return rand.New(rand.NewSource(seed))
}

// clockSeed hides the wall clock behind a helper.
func clockSeed() int64 {
	return time.Now().UnixNano()
}

// Helper seeds from the helper's return value.
func Helper() rand.Source {
	return rand.NewSource(clockSeed())
}

// mix is an innocent-looking pure helper; nondeterminism in its
// argument flows straight through.
func mix(a int64) int64 {
	return a*2654435761 + 11400714819323198485>>32
}

// Mixed hashes the clock first — still the clock.
func Mixed() rand.Source {
	return rand.NewSource(mix(time.Now().Unix()))
}

// Pid seeds from process identity.
func Pid() rand.Source {
	return rand.NewSource(int64(os.Getpid()))
}

// Entropy seeds from crypto/rand, defeating replay entirely.
func Entropy() rand.Source {
	v, _ := crand.Int(crand.Reader, big.NewInt(1<<30))
	return rand.NewSource(v.Int64())
}

// Closure captures a tainted seed and constructs inside a literal.
func Closure() func() *rand.Rand {
	seed := time.Now().UnixNano()
	return func() *rand.Rand {
		return rand.New(rand.NewSource(seed))
	}
}

// Direct seeds from the clock with no laundering at all.
func Direct() *rand.Rand {
	return rand.New(rand.NewSource(time.Now().UnixNano()))
}
