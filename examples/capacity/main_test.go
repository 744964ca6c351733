package main

import (
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

// TestCapacityRuns drives the Appendix C analysis end to end and
// checks it prints Table 12 and names the most exposed link.
func TestCapacityRuns(t *testing.T) {
	got, err := transcript()
	if err != nil {
		t.Fatalf("capacity failed: %v\n%s", err, got)
	}
	for _, want := range []string{
		"Table 12: peering links at risk of overload on individual link outage",
		"most exposed: ",
	} {
		if !strings.Contains(got, want) {
			t.Errorf("output missing %q:\n%s", want, got)
		}
	}
}

// TestCapacityDeterministic runs the analysis again and expects the
// identical transcript: the seed fixes every row.
func TestCapacityDeterministic(t *testing.T) {
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
