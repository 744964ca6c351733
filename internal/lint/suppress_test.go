package lint

import (
	"bytes"
	"testing"
)

// TestSuppressionInventory covers the -suppressions plumbing: justified
// directives list cleanly, a reasonless directive is flagged invalid.
func TestSuppressionInventory(t *testing.T) {
	p, err := loader(t).LoadSource("sup_fixture.go", `package p
import "time"

//lint:ignore determinism fixture needs the wall clock
func f() int64 { return time.Now().Unix() }

//lint:ignore determinism
func g() int64 { return time.Now().Unix() }
`)
	if err != nil {
		t.Fatal(err)
	}
	sups := CollectSuppressions([]*Package{p})
	if len(sups) != 2 {
		t.Fatalf("got %d suppressions, want 2: %+v", len(sups), sups)
	}
	if sups[0].Reason != "fixture needs the wall clock" {
		t.Errorf("reason not captured: %+v", sups[0])
	}
	if sups[1].Reason != "" {
		t.Errorf("reasonless directive not detected: %+v", sups[1])
	}
	var buf bytes.Buffer
	if bad := WriteSuppressions(&buf, sups); !bad {
		t.Error("WriteSuppressions did not flag the reasonless directive")
	}
	out := buf.String()
	for _, want := range []string{"fixture needs the wall clock", "INVALID: no reason given"} {
		if !bytes.Contains([]byte(out), []byte(want)) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
}
