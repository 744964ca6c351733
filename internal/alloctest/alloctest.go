// Package alloctest is test support for the exact testing.AllocsPerRun
// pins on the ingest and serving paths.
package alloctest

import (
	"runtime"
	"testing"
)

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

// BytesPerRun is testing.AllocsPerRun's figure in bytes: the heap
// bytes the average of runs calls of f allocates, after one warm-up
// call, at GOMAXPROCS 1 so that pooled buffers stay on one P. A count
// of allocations can hide their size; this shows it.
func BytesPerRun(runs int, f func()) uint64 {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	f()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		f()
	}
	runtime.ReadMemStats(&after)
	return (after.TotalAlloc - before.TotalAlloc) / uint64(runs)
}
