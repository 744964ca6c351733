package eval

import (
	"fmt"
	"slices"
	"strings"

	"tipsy/internal/features"
)

// FormatAccuracyTable renders accuracy rows in the paper's table
// layout under title and the unit they are scored over: a flow, or an
// oracle's tuple, over a test window of testDays days.
func FormatAccuracyTable(title string, testDays int, rows []AccuracyRow) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s; unit: flow × %d-day test window", title, testDays)
	if slices.ContainsFunc(rows, func(r AccuracyRow) bool { return r.Oracle }) {
		fmt.Fprintf(&b, " (Oracle_*: tuple × %d-day test window)", testDays)
	}
	b.WriteString("\n")
	fmt.Fprintf(&b, "%-18s %8s %8s %8s\n", "Model", "Top 1 %", "Top 2 %", "Top 3 %")
	best := [3]float64{}
	for _, r := range rows {
		if r.Oracle {
			continue
		}
		if r.Top1 > best[0] {
			best[0] = r.Top1
		}
		if r.Top2 > best[1] {
			best[1] = r.Top2
		}
		if r.Top3 > best[2] {
			best[2] = r.Top3
		}
	}
	mark := func(v, best float64, oracle bool) string {
		s := fmt.Sprintf("%8.2f", v)
		if !oracle && v == best && v > 0 {
			s += "*"
		} else {
			s += " "
		}
		return s
	}
	for _, r := range rows {
		fmt.Fprintf(&b, "%-18s %s %s %s\n", r.Model,
			mark(r.Top1, best[0], r.Oracle),
			mark(r.Top2, best[1], r.Oracle),
			mark(r.Top3, best[2], r.Oracle))
	}
	b.WriteString("(* best non-oracle accuracy per column)\n")
	return b.String()
}

// FormatFig2 renders the Figure 2 CDF.
func FormatFig2(points []Fig2Point) string {
	var b strings.Builder
	b.WriteString("Figure 2: CDF of bytes by source-AS distance\n")
	fmt.Fprintf(&b, "%-10s %14s %10s\n", "AS hops", "bytes", "cum %")
	for _, p := range points {
		fmt.Fprintf(&b, "%-10d %14.3e %9.2f%%\n", p.Dist, float64(p.Bytes), p.CumFrac*100)
	}
	return b.String()
}

// FormatFig3 renders the Figure 3 per-distance link-spread summary.
func FormatFig3(rows []Fig3Row) string {
	var b strings.Builder
	b.WriteString("Figure 3: links receiving a source AS's traffic, by AS distance (byte-weighted)\n")
	fmt.Fprintf(&b, "%-10s %6s %12s %6s %6s %6s %6s\n", "AS hops", "ASes", "bytes", "p50", "p90", "p99", "max")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-10d %6d %12.3e %6d %6d %6d %6d\n",
			r.Dist, r.ASes, float64(r.Bytes), r.P50, r.P90, r.P99, r.MaxLinks)
	}
	return b.String()
}

// FormatFig5 renders the oracle-accuracy-vs-k curve.
func FormatFig5(points []Fig5Point, testDays int) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Figure 5: oracle accuracy vs number of predicted links; unit: tuple × %d-day test window\n", testDays)
	fmt.Fprintf(&b, "%-8s %10s %10s %10s\n", "k", "Oracle_A", "Oracle_AP", "Oracle_AL")
	for _, p := range points {
		k := fmt.Sprintf("%d", p.K)
		if p.K == 0 {
			k = "all"
		}
		fmt.Fprintf(&b, "%-8s %9.2f%% %9.2f%% %9.2f%%\n", k,
			p.Acc["Oracle_A"], p.Acc["Oracle_AP"], p.Acc["Oracle_AL"])
	}
	return b.String()
}

// FormatFig9 renders accuracy vs training window length.
func FormatFig9(points []Fig9Point, testDays int) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Figure 9: Hist_AL/AP/A top-3 accuracy vs training window length; unit: flow × %d-day test window\n", testDays)
	fmt.Fprintf(&b, "%-12s %8s %8s %8s\n", "train days", "mean %", "min %", "max %")
	for _, p := range points {
		fmt.Fprintf(&b, "%-12d %8.2f %8.2f %8.2f\n", p.TrainDays, p.MeanTop3, p.MinTop3, p.MaxTop3)
	}
	return b.String()
}

// FormatFig10 renders accuracy decay per day after training.
func FormatFig10(points []Fig10Point) string {
	var b strings.Builder
	b.WriteString("Figure 10: Hist_AL/AP/A top-3 accuracy per day after training; unit: flow × day\n")
	fmt.Fprintf(&b, "%-12s %8s\n", "day after", "top-3 %")
	for _, p := range points {
		fmt.Fprintf(&b, "%-12d %8.2f\n", p.DayAfter, p.Top3)
	}
	return b.String()
}

// FormatFig11 renders the sliding-window accuracy distributions.
func FormatFig11(stats []Fig11Stats) string {
	var b strings.Builder
	b.WriteString("Figure 11: Hist_AL/AP/A top-3 accuracy across sliding windows, by outage class; unit: flow × day\n")
	fmt.Fprintf(&b, "%-10s %4s %8s %8s %8s %8s %8s\n", "class", "n", "min", "q1", "median", "q3", "max")
	for _, s := range stats {
		fmt.Fprintf(&b, "%-10s %4d %8.2f %8.2f %8.2f %8.2f %8.2f\n",
			s.Class, s.N, s.Min, s.Q1, s.Median, s.Q3, s.Max)
	}
	return b.String()
}

// FormatTable1 renders the feature cardinality summary in the shape
// of the paper's Table 1.
func FormatTable1(c features.Cardinality) string {
	var b strings.Builder
	b.WriteString("Table 1: feature cardinalities and tuple counts (training window)\n")
	fmt.Fprintf(&b, "%-18s %10s\n", "feature", "distinct")
	fmt.Fprintf(&b, "%-18s %10d\n", "source AS", c.AS)
	fmt.Fprintf(&b, "%-18s %10d\n", "source /24", c.Prefix)
	fmt.Fprintf(&b, "%-18s %10d\n", "source location", c.Loc)
	fmt.Fprintf(&b, "%-18s %10d\n", "dest region", c.Region)
	fmt.Fprintf(&b, "%-18s %10d\n", "dest type", c.Type)
	fmt.Fprintf(&b, "%-18s %10d\n", "tuples (A)", c.TuplesA)
	fmt.Fprintf(&b, "%-18s %10d\n", "tuples (AP)", c.TuplesAP)
	fmt.Fprintf(&b, "%-18s %10d\n", "tuples (AL)", c.TuplesAL)
	return b.String()
}
