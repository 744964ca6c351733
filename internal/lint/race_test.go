package lint

import (
	"sync"
	"testing"
)

// TestConcurrentFullTierIsDeterministic loads the whole module and
// then executes the complete rule set twice concurrently over the
// shared package slice (under the race detector in scripts/check.sh).
// The two outputs must be byte-identical: findings are emitted in a
// deterministic order, and no rule may mutate shared package state.
func TestConcurrentFullTierIsDeterministic(t *testing.T) {
	pkgs, err := module()
	if err != nil {
		t.Fatal(err)
	}

	var out [2]string
	var wg sync.WaitGroup
	for i := range out {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			out[i] = format(moduleRoot, Run(pkgs, Rules()))
		}(i)
	}
	wg.Wait()

	if out[0] != out[1] {
		t.Errorf("two concurrent runs disagree:\n--- first\n%s--- second\n%s", out[0], out[1])
	}
	if out[0] != "" {
		t.Errorf("repository is not lint-clean:\n%s", out[0])
	}
}
