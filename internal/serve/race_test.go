//go:build race

package serve

// raceEnabled reports a build with the race detector, which makes
// TestAppendFloatMatchesStrconv's random sweep take minutes; the sweep
// is single-goroutine arithmetic, so it runs without it.
const raceEnabled = true
