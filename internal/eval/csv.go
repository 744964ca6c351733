package eval

import (
	"encoding/csv"
	"fmt"
	"os"
	"path/filepath"
	"strconv"

	"tipsy/internal/features"
)

// CSV export: every experiment's data in a plot-ready form, so the
// paper's figures can be regenerated with any plotting tool. Each
// writer produces one file under dir.

func writeCSV(dir, name string, header []string, rows [][]string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	f, err := os.Create(filepath.Join(dir, name))
	if err != nil {
		return err
	}
	defer f.Close()
	w := csv.NewWriter(f)
	if err := w.Write(header); err != nil {
		return err
	}
	if err := w.WriteAll(rows); err != nil {
		return err
	}
	w.Flush()
	return w.Error()
}

func f2s(v float64) string { return strconv.FormatFloat(v, 'g', 8, 64) }

// WriteAccuracyCSV exports an accuracy table.
func WriteAccuracyCSV(dir, name string, rows []AccuracyRow) error {
	out := make([][]string, len(rows))
	for i, r := range rows {
		kind := "model"
		if r.Oracle {
			kind = "oracle"
		}
		out[i] = []string{r.Model, kind, f2s(r.Top1), f2s(r.Top2), f2s(r.Top3)}
	}
	return writeCSV(dir, name, []string{"model", "kind", "top1_pct", "top2_pct", "top3_pct"}, out)
}

// WriteFig2CSV exports the byte-distance CDF.
func WriteFig2CSV(dir string, pts []Fig2Point) error {
	rows := make([][]string, len(pts))
	for i, p := range pts {
		rows[i] = []string{strconv.Itoa(p.Dist), f2s(float64(p.Bytes)), f2s(p.CumFrac)}
	}
	return writeCSV(dir, "fig2.csv", []string{"as_hops", "bytes", "cum_frac"}, rows)
}

// WriteFig3CSV exports the per-distance link-spread quantiles.
func WriteFig3CSV(dir string, rows3 []Fig3Row) error {
	rows := make([][]string, len(rows3))
	for i, r := range rows3 {
		rows[i] = []string{strconv.Itoa(r.Dist), strconv.Itoa(r.ASes), f2s(float64(r.Bytes)),
			strconv.Itoa(r.P50), strconv.Itoa(r.P90), strconv.Itoa(r.P99), strconv.Itoa(r.MaxLinks)}
	}
	return writeCSV(dir, "fig3.csv",
		[]string{"as_hops", "ases", "bytes", "p50_links", "p90_links", "p99_links", "max_links"}, rows)
}

// WriteFig5CSV exports the oracle-vs-k curves.
func WriteFig5CSV(dir string, pts []Fig5Point) error {
	rows := make([][]string, len(pts))
	for i, p := range pts {
		rows[i] = []string{strconv.Itoa(p.K),
			f2s(p.Acc["Oracle_A"]), f2s(p.Acc["Oracle_AP"]), f2s(p.Acc["Oracle_AL"])}
	}
	return writeCSV(dir, "fig5.csv", []string{"k", "oracle_a_pct", "oracle_ap_pct", "oracle_al_pct"}, rows)
}

// WriteFig6CSV exports the first-outage CDF.
func WriteFig6CSV(dir string, pts []Fig6Point) error {
	rows := make([][]string, len(pts))
	for i, p := range pts {
		rows[i] = []string{strconv.Itoa(p.Day), f2s(p.CumFrac)}
	}
	return writeCSV(dir, "fig6.csv", []string{"day", "cum_frac"}, rows)
}

// WriteFig7CSV exports the last-outage CDF.
func WriteFig7CSV(dir string, pts []Fig7Point) error {
	rows := make([][]string, len(pts))
	for i, p := range pts {
		rows[i] = []string{strconv.Itoa(p.DaysAgo), f2s(p.CumFrac)}
	}
	return writeCSV(dir, "fig7.csv", []string{"days_ago", "cum_frac"}, rows)
}

// WriteFig9CSV exports accuracy vs training-window length.
func WriteFig9CSV(dir string, pts []Fig9Point) error {
	rows := make([][]string, len(pts))
	for i, p := range pts {
		rows[i] = []string{strconv.Itoa(p.TrainDays), f2s(p.MeanTop3), f2s(p.MinTop3), f2s(p.MaxTop3)}
	}
	return writeCSV(dir, "fig9.csv", []string{"train_days", "mean_top3_pct", "min_top3_pct", "max_top3_pct"}, rows)
}

// WriteFig10CSV exports the staleness decay.
func WriteFig10CSV(dir string, pts []Fig10Point) error {
	rows := make([][]string, len(pts))
	for i, p := range pts {
		rows[i] = []string{strconv.Itoa(p.DayAfter), f2s(p.Top3)}
	}
	return writeCSV(dir, "fig10.csv", []string{"day_after", "top3_pct"}, rows)
}

// WriteFig11CSV exports the sliding-window distribution summary.
func WriteFig11CSV(dir string, stats []Fig11Stats) error {
	rows := make([][]string, len(stats))
	for i, s := range stats {
		rows[i] = []string{s.Class, strconv.Itoa(s.N),
			f2s(s.Min), f2s(s.Q1), f2s(s.Median), f2s(s.Q3), f2s(s.Max)}
	}
	return writeCSV(dir, "fig11.csv", []string{"class", "n", "min", "q1", "median", "q3", "max"}, rows)
}

// WriteTable1CSV exports feature cardinalities.
func WriteTable1CSV(dir string, c features.Cardinality) error {
	rows := [][]string{
		{"source_as", strconv.Itoa(c.AS)},
		{"source_prefix24", strconv.Itoa(c.Prefix)},
		{"source_location", strconv.Itoa(c.Loc)},
		{"dest_region", strconv.Itoa(c.Region)},
		{"dest_type", strconv.Itoa(c.Type)},
		{"tuples_a", strconv.Itoa(c.TuplesA)},
		{"tuples_ap", strconv.Itoa(c.TuplesAP)},
		{"tuples_al", strconv.Itoa(c.TuplesAL)},
	}
	return writeCSV(dir, "table1.csv", []string{"feature", "distinct"}, rows)
}

// CSVNameForTable maps an experiment name to its CSV file name.
func CSVNameForTable(experiment string) string {
	return fmt.Sprintf("%s.csv", experiment)
}
