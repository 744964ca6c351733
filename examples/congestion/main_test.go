package main

import (
	"fmt"
	"strings"
	"sync"
	"testing"
)

// transcript is one run's output, shared by the tests below.
var transcript = sync.OnceValues(func() (string, error) {
	var out strings.Builder
	err := run(&out)
	return out.String(), err
})

// TestCongestionRuns replays the §2 incident both ways and checks
// that TIPSY-guided mitigation cascades for no more hours than the
// blind one.
func TestCongestionRuns(t *testing.T) {
	got, err := transcript()
	if err != nil {
		t.Fatalf("congestion failed: %v\n%s", err, got)
	}
	i := strings.Index(got, "cascaded congested hours")
	if i < 0 {
		t.Fatalf("output has no comparison table:\n%s", got)
	}
	var blind, tipsy int
	if _, err := fmt.Sscanf(got[i+len("cascaded congested hours"):], "%d %d", &blind, &tipsy); err != nil {
		t.Fatalf("cannot read the cascaded hours: %v\n%s", err, got)
	}
	if tipsy > blind {
		t.Errorf("TIPSY cascaded %d hours, blind %d:\n%s", tipsy, blind, got)
	}
}

// TestCongestionDeterministic replays the incident again and expects
// the identical transcript: the seed fixes the incident and both
// mitigations.
func TestCongestionDeterministic(t *testing.T) {
	first, err := transcript()
	if err != nil {
		t.Fatal(err)
	}
	var again strings.Builder
	if err := run(&again); err != nil {
		t.Fatal(err)
	}
	if again.String() != first {
		t.Errorf("same seed printed different transcripts:\n--- first\n%s--- second\n%s", first, again.String())
	}
}
