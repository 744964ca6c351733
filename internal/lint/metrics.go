package lint

import (
	"go/ast"
	"go/types"
	"strings"
)

// checkMetrics enforces the observability migration in instrumented
// packages: event counters must live on the obsv registry, not as
// bare integer struct fields that /metrics can never see. A field is
// flagged when it is integer-typed and its name reads as an event
// counter — a mixedCaps name ending in Count/Total, or one of the
// counter words the telemetry substrate actually uses.
//
// Snapshot types are the sanctioned exception: structs whose names
// end in Stats, Snapshot, or Counters are the read-side copies
// returned to callers (CollectorStats, obsv.Snapshot, ...) and may
// keep plain integers.
func checkMetrics(scope []*Package, report ReportFunc) {
	counterWords := map[string]bool{
		"dropped": true, "lost": true, "quarantined": true,
		"reordered": true, "resyncs": true, "monitored": true,
		"replayed": true, "evicted": true, "buffered": true,
		"hits": true, "misses": true,
	}
	isCounterName := func(name string) bool {
		lower := strings.ToLower(name)
		for _, suffix := range []string{"count", "counts", "total", "totals"} {
			// The suffix must qualify a longer name: bare "count" is
			// sized state (a gap's width), not an event counter.
			if strings.HasSuffix(lower, suffix) && len(lower) > len(suffix) {
				return true
			}
		}
		return counterWords[lower]
	}
	exemptStruct := func(name string) bool {
		for _, suffix := range []string{"Stats", "Snapshot", "Counters"} {
			if strings.HasSuffix(name, suffix) {
				return true
			}
		}
		return false
	}

	for _, p := range scope {
		for _, f := range p.Files {
			ast.Inspect(f, func(n ast.Node) bool {
				ts, ok := n.(*ast.TypeSpec)
				if !ok {
					return true
				}
				st, ok := ts.Type.(*ast.StructType)
				if !ok || exemptStruct(ts.Name.Name) {
					return true
				}
				for _, field := range st.Fields.List {
					tv := p.Info.TypeOf(field.Type)
					if tv == nil {
						continue
					}
					basic, ok := tv.Underlying().(*types.Basic)
					if !ok || basic.Info()&types.IsInteger == 0 {
						continue
					}
					for _, name := range field.Names {
						if isCounterName(name.Name) {
							report(name.Pos(),
								"bare counter field %s.%s; back it with an obsv.Counter on the package registry (snapshot structs named *Stats/*Snapshot/*Counters may keep plain integers)",
								ts.Name.Name, name.Name)
						}
					}
				}
				return true
			})
		}
	}
}
