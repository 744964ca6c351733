package main

import (
	"fmt"
	"strings"
	"testing"
)

// TestIngestionRuns drives the wire path end to end over loopback TCP
// and checks the counts it prints: every exported record decoded, no
// sequence loss, and a model with tuples trained on the result.
func TestIngestionRuns(t *testing.T) {
	var out strings.Builder
	if err := run(&out, 12); err != nil {
		t.Fatalf("ingestion failed: %v", err)
	}
	var exported, decoded, messages, lost, sampling, aggregates, tuples int
	var model string
	for _, line := range strings.Split(out.String(), "\n") {
		switch {
		case strings.HasPrefix(line, "IPFIX:"):
			if _, err := fmt.Sscanf(line, "IPFIX: exported %d flow records, decoded %d from %d messages (%d lost), sampling 1/%d announced",
				&exported, &decoded, &messages, &lost, &sampling); err != nil {
				t.Fatalf("parsing %q: %v", line, err)
			}
		case strings.HasPrefix(line, "pipeline:"):
			if _, err := fmt.Sscanf(line, "pipeline: %d hourly aggregates -> %s with %d tuples",
				&aggregates, &model, &tuples); err != nil {
				t.Fatalf("parsing %q: %v", line, err)
			}
		}
	}
	if exported == 0 || decoded != exported || lost != 0 {
		t.Errorf("wire path: exported %d, decoded %d, lost %d:\n%s", exported, decoded, lost, out.String())
	}
	if messages == 0 || sampling != 4096 {
		t.Errorf("collector saw %d messages and sampling 1/%d, want > 0 and 1/4096", messages, sampling)
	}
	if aggregates == 0 || tuples == 0 {
		t.Errorf("model %q trained on %d aggregates has %d tuples, want both > 0", model, aggregates, tuples)
	}
}
