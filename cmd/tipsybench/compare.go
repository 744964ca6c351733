package main

import (
	"encoding/json"
	"fmt"
	"os"
	"sort"
)

// CompareResult classifies the differences between two reports.
// Mismatches are deterministic divergences — same seed and config
// must reproduce them bit-for-bit, so any difference is a correctness
// regression and fails the run. Warnings are timing drifts beyond the
// tolerance (or environment changes that make timing comparison
// unreliable); they inform, they don't gate.
type CompareResult struct {
	Mismatches []string
	Warnings   []string
}

func (c *CompareResult) mismatch(format string, args ...any) {
	c.Mismatches = append(c.Mismatches, fmt.Sprintf(format, args...))
}

func (c *CompareResult) warn(format string, args ...any) {
	c.Warnings = append(c.Warnings, fmt.Sprintf(format, args...))
}

// Compare diffs cur against a prior report. timingTol is the relative
// wall-time drift (e.g. 0.25 = ±25%) tolerated before a stage earns a
// warning; stages faster than timingFloorNs are skipped — their
// timings are noise.
const timingFloorNs = 5e6 // 5ms

func Compare(prior, cur *Report, timingTol float64) CompareResult {
	var res CompareResult

	// Identity: comparing across schema, seed, or config is
	// meaningless — refuse rather than report nonsense diffs.
	if prior.Schema != cur.Schema {
		res.mismatch("schema: prior %q, current %q", prior.Schema, cur.Schema)
	}
	if prior.Seed != cur.Seed {
		res.mismatch("seed: prior %d, current %d", prior.Seed, cur.Seed)
	}
	if prior.Config != cur.Config {
		res.mismatch("config: prior %q, current %q", prior.Config, cur.Config)
	}
	if len(res.Mismatches) > 0 {
		return res
	}

	// Toolchain or platform changes don't invalidate the deterministic
	// fields, but they do reframe any timing delta.
	if prior.GoVersion != cur.GoVersion {
		res.warn("go_version changed: %s -> %s (timing deltas unreliable)", prior.GoVersion, cur.GoVersion)
	}
	if prior.GOOS != cur.GOOS || prior.GOARCH != cur.GOARCH {
		res.warn("platform changed: %s/%s -> %s/%s (timing deltas unreliable)",
			prior.GOOS, prior.GOARCH, cur.GOOS, cur.GOARCH)
	}

	if prior.Env != cur.Env {
		res.mismatch("env: prior %+v, current %+v", prior.Env, cur.Env)
	}
	compareScalarMap(&res, "metrics", prior.Metrics, cur.Metrics)
	compareFloatMap(&res, "accuracy", prior.Accuracy, cur.Accuracy)

	// Stages: the set, order, and item counts are deterministic; wall
	// time gets the tolerance band.
	if len(prior.Stages) != len(cur.Stages) {
		res.mismatch("stage count: prior %d, current %d", len(prior.Stages), len(cur.Stages))
		return res
	}
	for i, p := range prior.Stages {
		c := cur.Stages[i]
		if p.Name != c.Name {
			res.mismatch("stage %d: prior %q, current %q", i, p.Name, c.Name)
			continue
		}
		if p.Items != c.Items {
			res.mismatch("stage %s items: prior %d, current %d", p.Name, p.Items, c.Items)
		}
		warnTiming(&res, "stage "+p.Name, p.WallNs, c.WallNs, timingTol)
		warnPerRecord(&res, "stage "+p.Name+" allocs_per_record", p.AllocsPerRecord, c.AllocsPerRecord)
		warnPerRecord(&res, "stage "+p.Name+" bytes_per_record", p.BytesPerRecord, c.BytesPerRecord)
	}
	warnTiming(&res, "total", prior.TotalWallNs, cur.TotalWallNs, timingTol)
	warnTracing(&res, "tracing sampled span overhead", prior.TracingSampledNs, cur.TracingSampledNs)
	warnTracing(&res, "tracing disabled span overhead", prior.TracingDisabledNs, cur.TracingDisabledNs)
	return res
}

// tracingTol is the relative per-span overhead growth tolerated
// before a warning. A span lifecycle is tens of nanoseconds, where
// scheduler noise dwarfs real drift, so the band is wide; reports
// predating the fields (value 0) are skipped by the prior<=0 guard,
// and improvements are silent.
const tracingTol = 1.0

func warnTracing(res *CompareResult, what string, prior, cur int64) {
	if prior <= 0 {
		return
	}
	delta := float64(cur-prior) / float64(prior)
	if delta > tracingTol {
		res.warn("%s %+.0f%% (%d ns -> %d ns per span, tolerance +%.0f%%)",
			what, 100*delta, prior, cur, 100*tracingTol)
	}
}

func warnTiming(res *CompareResult, what string, prior, cur int64, tol float64) {
	if prior < timingFloorNs && cur < timingFloorNs {
		return
	}
	if prior <= 0 {
		return
	}
	delta := float64(cur-prior) / float64(prior)
	if delta > tol || delta < -tol {
		res.warn("%s wall time %+.1f%% (%.2fms -> %.2fms, tolerance ±%.0f%%)",
			what, 100*delta, float64(prior)/1e6, float64(cur)/1e6, 100*tol)
	}
}

// perRecordTol is the relative per-record allocation growth tolerated
// before a warning: allocation counts are near-deterministic (unlike
// wall time), so the band is tight, but GC-internal variation and old
// reports predating the fields (value 0, skipped via the prior<=0
// guard) keep this warn-only. Improvements are silent — the ratchet
// in tipsylint's budget file is where wins get locked in.
const perRecordTol = 0.10

func warnPerRecord(res *CompareResult, what string, prior, cur float64) {
	if prior <= 0 {
		return
	}
	delta := (cur - prior) / prior
	if delta > perRecordTol {
		res.warn("%s %+.1f%% (%.2f -> %.2f, tolerance +%.0f%%)",
			what, 100*delta, prior, cur, 100*perRecordTol)
	}
}

func compareScalarMap(res *CompareResult, what string, prior, cur map[string]int64) {
	for _, k := range sortedKeys(prior, cur) {
		pv, pok := prior[k]
		cv, cok := cur[k]
		switch {
		case !pok:
			res.mismatch("%s[%s]: absent in prior, current %d", what, k, cv)
		case !cok:
			res.mismatch("%s[%s]: prior %d, absent in current", what, k, pv)
		case pv != cv:
			res.mismatch("%s[%s]: prior %d, current %d", what, k, pv, cv)
		}
	}
}

func compareFloatMap(res *CompareResult, what string, prior, cur map[string]float64) {
	for _, k := range sortedKeys(prior, cur) {
		pv, pok := prior[k]
		cv, cok := cur[k]
		switch {
		case !pok:
			res.mismatch("%s[%s]: absent in prior, current %v", what, k, cv)
		case !cok:
			res.mismatch("%s[%s]: prior %v, absent in current", what, k, pv)
		case pv != cv:
			res.mismatch("%s[%s]: prior %v, current %v", what, k, pv, cv)
		}
	}
}

func sortedKeys[V any](a, b map[string]V) []string {
	seen := make(map[string]bool, len(a)+len(b))
	var keys []string
	for k := range a {
		seen[k] = true
		keys = append(keys, k)
	}
	for k := range b {
		if !seen[k] {
			keys = append(keys, k)
		}
	}
	sort.Strings(keys)
	return keys
}

// loadReport reads a prior BENCH_*.json.
func loadReport(path string) (*Report, error) {
	buf, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var rep Report
	if err := json.Unmarshal(buf, &rep); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &rep, nil
}
