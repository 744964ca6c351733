package lint

import (
	"strings"
	"testing"
)

// runGuardedBy runs the locks rule alone over one in-memory file.
func runGuardedBy(t *testing.T, name, src string) []Diagnostic {
	t.Helper()
	p, err := LoadSource(name, src)
	if err != nil {
		t.Fatal(err)
	}
	return Run([]*Package{p}, []Rule{descope(ruleByName(t, "locks"))})
}

func messages(diags []Diagnostic) []string {
	out := make([]string, len(diags))
	for i, d := range diags {
		out[i] = d.String()
	}
	return out
}

func wantNone(t *testing.T, diags []Diagnostic) {
	t.Helper()
	if len(diags) != 0 {
		t.Errorf("expected no diagnostics, got:\n%s", strings.Join(messages(diags), "\n"))
	}
}

func wantOne(t *testing.T, diags []Diagnostic, substr string) {
	t.Helper()
	if len(diags) != 1 || !strings.Contains(diags[0].Message, substr) {
		t.Errorf("expected exactly one diagnostic containing %q, got:\n%s",
			substr, strings.Join(messages(diags), "\n"))
	}
}

// TestGuardedByDeferSpansEarlyReturns proves a deferred unlock keeps
// the lock held across every return path, including ones buried in
// branches, and that a manual unlock before a return correctly ends
// the critical section.
func TestGuardedByDeferSpansEarlyReturns(t *testing.T) {
	wantNone(t, runGuardedBy(t, "gb_defer_clean.go", `package p
import "sync"
type T struct {
	mu sync.Mutex
	//tipsy:guardedby mu
	n int
}
func (t *T) Classify(v int) int {
	t.mu.Lock()
	defer t.mu.Unlock()
	if v < 0 {
		return -t.n
	}
	if v == 0 {
		return 0
	}
	for i := 0; i < v; i++ {
		t.n++
	}
	return t.n
}
`))

	// After a manual Unlock the critical section is over: the access
	// on the post-unlock return path must be flagged.
	wantOne(t, runGuardedBy(t, "gb_defer_bad.go", `package p
import "sync"
type T struct {
	mu sync.Mutex
	//tipsy:guardedby mu
	n int
}
func (t *T) Leak() int {
	t.mu.Lock()
	t.n++
	t.mu.Unlock()
	return t.n
}
`), "unguarded read of p.T.n")
}

// TestGuardedByClosures pins the closure policy: a goroutine or
// otherwise-escaping closure loses the creating function's critical
// section, while a synchronous sort comparator keeps it.
func TestGuardedByClosures(t *testing.T) {
	diags := runGuardedBy(t, "gb_closure_escape.go", `package p
import "sync"
type T struct {
	mu sync.Mutex
	//tipsy:guardedby mu
	n int
}
func (t *T) Spawn() {
	t.mu.Lock()
	defer t.mu.Unlock()
	go func() { t.n++ }()
}
`)
	wantOne(t, diags, "escaping closure")

	wantNone(t, runGuardedBy(t, "gb_closure_sync.go", `package p
import (
	"sort"
	"sync"
)
type T struct {
	mu sync.Mutex
	//tipsy:guardedby mu
	xs []int
}
func (t *T) Sort() {
	t.mu.Lock()
	defer t.mu.Unlock()
	sort.Slice(t.xs, func(i, j int) bool { return t.xs[i] < t.xs[j] })
}
`))

	// A closure stored for later runs outside the critical section
	// even without a go statement.
	wantOne(t, runGuardedBy(t, "gb_closure_stored.go", `package p
import "sync"
type T struct {
	mu sync.Mutex
	//tipsy:guardedby mu
	n int
}
var hooks []func()
func (t *T) Defer() {
	t.mu.Lock()
	defer t.mu.Unlock()
	hooks = append(hooks, func() { t.n++ })
}
`), "escaping closure")
}

// TestGuardedByRLockWrite pins the read-lock policy: reads under
// RLock are fine, writes under RLock are flagged, and an upgrade to
// the write lock clears it.
func TestGuardedByRLockWrite(t *testing.T) {
	wantNone(t, runGuardedBy(t, "gb_rlock_clean.go", `package p
import "sync"
type T struct {
	mu sync.RWMutex
	//tipsy:guardedby mu
	m map[string]int
}
func (t *T) Get(k string) int { t.mu.RLock(); defer t.mu.RUnlock(); return t.m[k] }
func (t *T) Put(k string, v int) { t.mu.Lock(); defer t.mu.Unlock(); t.m[k] = v }
`))

	wantOne(t, runGuardedBy(t, "gb_rlock_bad.go", `package p
import "sync"
type T struct {
	mu sync.RWMutex
	//tipsy:guardedby mu
	m map[string]int
}
func (t *T) Put(k string, v int) { t.mu.RLock(); t.m[k] = v; t.mu.RUnlock() }
`), "a read lock admits concurrent readers")
}

// TestGuardedByInterprocedural proves entry-lock inference through
// both receiver calls and guarded-struct parameters, and that a
// single lock-free call site poisons the closure.
func TestGuardedByInterprocedural(t *testing.T) {
	wantNone(t, runGuardedBy(t, "gb_inter_recv.go", `package p
import "sync"
type T struct {
	mu sync.Mutex
	//tipsy:guardedby mu
	n int
}
func (t *T) Inc() { t.mu.Lock(); defer t.mu.Unlock(); t.incLocked() }
func (t *T) Add(v int) { t.mu.Lock(); defer t.mu.Unlock(); for i := 0; i < v; i++ { t.incLocked() } }
func (t *T) incLocked() { t.n++ }
`))

	// The shard arrives as a parameter, not the receiver, and the
	// helper chains it on to a second helper.
	wantNone(t, runGuardedBy(t, "gb_inter_param.go", `package p
import "sync"
type shard struct {
	mu sync.Mutex
	//tipsy:guardedby mu
	m map[int]int
}
type agg struct{ shards [4]shard }
func (a *agg) Put(k, v int) {
	s := &a.shards[k%4]
	s.mu.Lock()
	apply(s, k, v)
	s.mu.Unlock()
}
func apply(s *shard, k, v int) { chain(s, k, v) }
func chain(s *shard, k, v int) { s.m[k] = v }
`))

	diags := runGuardedBy(t, "gb_inter_poison.go", `package p
import "sync"
type T struct {
	mu sync.Mutex
	//tipsy:guardedby mu
	n int
}
func (t *T) Inc() { t.mu.Lock(); defer t.mu.Unlock(); t.incLocked() }
func (t *T) Race() { t.incLocked() }
func (t *T) incLocked() { t.n++ }
`)
	wantOne(t, diags, "unguarded write to p.T.n")

	// Exported helpers never inherit entry locks: external callers
	// are invisible to the call-graph closure.
	wantOne(t, runGuardedBy(t, "gb_inter_exported.go", `package p
import "sync"
type T struct {
	mu sync.Mutex
	//tipsy:guardedby mu
	n int
}
func (t *T) Inc() { t.mu.Lock(); defer t.mu.Unlock(); t.IncLocked() }
func (t *T) IncLocked() { t.n++ }
`), "unguarded write to p.T.n")
}

// TestGuardedByExemptions covers the accesses the rule must not
// flag: constructor bodies (a store through an element of a fresh
// local's array too), zero-value locals, sync/atomic fields and atomic
// calls on &t.f, and reasoned //tipsy:nolock fields. A fresh local
// that one branch rebinds to a parameter is no longer a constructor's.
func TestGuardedByExemptions(t *testing.T) {
	wantNone(t, runGuardedBy(t, "gb_exempt.go", `package p
import (
	"sync"
	"sync/atomic"
)
type T struct {
	mu sync.Mutex
	//tipsy:guardedby mu
	n    int
	hits atomic.Int64
	raw  uint64
	//tipsy:nolock set once at startup, read-only afterwards
	name string
}
func New(name string) *T {
	t := &T{name: name}
	t.n = 1
	t.raw = 2
	return t
}
func Zero() *T {
	var t T
	t.n = 3
	return &t
}
func (t *T) Inc() { t.mu.Lock(); defer t.mu.Unlock(); t.n++ }
func (t *T) Touch() {
	t.hits.Add(1)
	atomic.AddUint64(&t.raw, 1)
}
func (t *T) Name() string { return t.name }
type Box struct{ ts [2]T }
func NewBox() *Box {
	b := &Box{}
	for i := range b.ts {
		b.ts[i].n = 5
	}
	return b
}
`))

	wantOne(t, runGuardedBy(t, "gb_exempt_rebound.go", `package p
import "sync"
type T struct {
	mu sync.Mutex
	//tipsy:guardedby mu
	n int
}
func (t *T) Inc() { t.mu.Lock(); defer t.mu.Unlock(); t.n++ }
func Pick(old *T, reuse bool) *T {
	t := &T{}
	if reuse {
		t = old
	}
	t.n = 4
	return t
}
`), "unguarded write to p.T.n")
}

// TestLockLeaksFollowControlFlow pins the leak check's must-hold
// reading on the shapes a source-order scan gets wrong in one
// direction or the other: releases inside an endless loop or a
// select, a deferred unlock spanning an unlock/relock, a lock taken
// and released under the same condition, and a closure running
// inside its creator's critical section. Lock state is must-hold, so
// a lock released on one branch only is not held after the join and
// is not reported; a return inside a loop that skips the release is.
func TestLockLeaksFollowControlFlow(t *testing.T) {
	wantNone(t, runGuardedBy(t, "leak_clean.go", `package p
import "sync"
type T struct {
	mu sync.Mutex
	n  int
}
func (t *T) Loop(ch chan int) {
	t.mu.Lock()
	for {
		if <-ch == 0 {
			t.mu.Unlock()
			return
		}
	}
}
func (t *T) Wait(a, b chan int) int {
	t.mu.Lock()
	select {
	case v := <-a:
		t.mu.Unlock()
		return v
	case v := <-b:
		t.mu.Unlock()
		return v
	}
}
func (t *T) Relock(slow func()) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.mu.Unlock()
	slow()
	t.mu.Lock()
}
func (t *T) Maybe(ok bool) {
	if ok {
		t.mu.Lock()
	}
	if ok {
		t.mu.Unlock()
	}
}
func (t *T) Inline() {
	t.mu.Lock()
	func() { t.n++ }()
	t.mu.Unlock()
}
func (t *T) OneBranch(ok bool) {
	t.mu.Lock()
	if ok {
		t.mu.Unlock()
	}
}
`))

	wantOne(t, runGuardedBy(t, "leak_loop.go", `package p
import "sync"
type T struct{ mu sync.RWMutex }
func (t *T) Find(xs []int) int {
	t.mu.RLock()
	for _, x := range xs {
		if x > 0 {
			return x
		}
	}
	t.mu.RUnlock()
	return 0
}
`), "t.mu.RLock() can reach the return at line 8 still held; release with defer t.mu.RUnlock()")
}

// TestGuardedByInferenceThreshold pins the majority rule: three
// locked accesses against one unlocked infer the guard, but an even
// split stays silent — inference must not manufacture guards from
// mixed disciplines.
func TestGuardedByInferenceThreshold(t *testing.T) {
	wantOne(t, runGuardedBy(t, "gb_thresh_fire.go", `package p
import "sync"
type T struct {
	mu sync.Mutex
	n  int
}
func (t *T) A() { t.mu.Lock(); t.n++; t.mu.Unlock() }
func (t *T) B() { t.mu.Lock(); t.n--; t.mu.Unlock() }
func (t *T) C() int { t.mu.Lock(); defer t.mu.Unlock(); return t.n }
func (t *T) D() int { return t.n }
`), "inferred from 3/4 locked accesses")

	wantNone(t, runGuardedBy(t, "gb_thresh_quiet.go", `package p
import "sync"
type T struct {
	mu sync.Mutex
	n  int
}
func (t *T) A() { t.mu.Lock(); t.n++; t.mu.Unlock() }
func (t *T) B() int { return t.n }
`))
}
