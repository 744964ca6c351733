// Package alloctest is test support for the exact testing.AllocsPerRun
// pins on the ingest and serving paths.
package alloctest

import "testing"

// SkipPooledUnderRace skips a pin whose measured path takes a buffer
// from a sync.Pool. Under the race detector Get and Put drop items at
// random by design, so the pooled buffer is reallocated on some runs
// and the count is exact only without -race; scripts/check.sh runs the
// pins once that way.
func SkipPooledUnderRace(t *testing.T) {
	t.Helper()
	if raceEnabled {
		t.Skip("sync.Pool drops items under the race detector, so this allocation count is exact only without -race")
	}
}
