package monitor

import (
	"fmt"

	"tipsy/internal/geo"
	"tipsy/internal/wan"
)

// WindowQuality summarizes one accuracy window (sliding, baseline, or
// post-withdrawal) for the quality report.
type WindowQuality struct {
	Groups int64   `json:"groups"`
	Bytes  uint64  `json:"bytes"`
	Top1   float64 `json:"top1"`
	Top3   float64 `json:"top3"`
}

func windowQuality(c cell) WindowQuality {
	return WindowQuality{Groups: c.groups, Bytes: c.bytes, Top1: c.top1(), Top3: c.top3()}
}

// QualityReport is the /debug/quality payload: everything in it is a
// pure function of the simulated-hour history the monitor consumed,
// so seeded runs produce byte-identical reports.
type QualityReport struct {
	// Hour is the last closed simulated hour (-1 before any close).
	Hour        wan.Hour      `json:"hour"`
	WindowHours int           `json:"window_hours"`
	Window      WindowQuality `json:"window"`

	BaselineAt wan.Hour      `json:"baseline_at_hour"` // -1 when never frozen
	Baseline   WindowQuality `json:"baseline"`
	DriftScore float64       `json:"drift_score"`

	// WithdrawalAt is the hour of the armed post-withdrawal watch, -1
	// when disarmed; PostWithdrawal covers joins strictly after it.
	WithdrawalAt   wan.Hour      `json:"withdrawal_at_hour"`
	PostWithdrawal WindowQuality `json:"post_withdrawal"`

	ByMetro    []SliceQuality `json:"by_metro,omitempty"`
	ByPeerKind []SliceQuality `json:"by_peer_kind,omitempty"`
	ByRung     []SliceQuality `json:"by_rung,omitempty"`

	Alarms []AlarmStatus `json:"alarms"`

	PendingPredictions int   `json:"pending_predictions"`
	PredictionsTotal   int64 `json:"predictions_total"`
	JoinsTotal         int64 `json:"joins_total"`
	TruthRecordsTotal  int64 `json:"truth_records_total"`
	TruthUnmatched     int64 `json:"truth_unmatched_total"`
	ExpiredUnjoined    int64 `json:"predictions_expired_total"`
}

// Quality builds the current quality report.
func (m *Monitor) Quality() QualityReport {
	m.mu.Lock()
	defer m.mu.Unlock()
	h := m.head - 1
	cur := m.windowTotals(h)
	r := QualityReport{
		Hour:         h,
		WindowHours:  m.cfg.WindowHours,
		Window:       windowQuality(cur.overall),
		BaselineAt:   -1,
		WithdrawalAt: m.withdrawalAt,
		DriftScore:   m.driftScore(cur),
		ByMetro: sliceReport(cur.byMetro, func(id geo.MetroID) string {
			return fmt.Sprintf("metro_%d", id)
		}),
		ByPeerKind:         sliceReport(cur.byKind, func(s string) string { return s }),
		ByRung:             sliceReport(cur.byRung, func(s string) string { return s }),
		PendingPredictions: len(m.pending),
		PredictionsTotal:   int64(m.met.predictions.Value()),
		JoinsTotal:         int64(m.met.joins.Value()),
		TruthRecordsTotal:  int64(m.met.truthRecs.Value()),
		TruthUnmatched:     int64(m.met.unmatched.Value()),
		ExpiredUnjoined:    int64(m.met.expired.Value()),
	}
	if m.hasBaseline {
		r.BaselineAt = m.baselineAt
		r.Baseline = windowQuality(m.baseline.overall)
	}
	if m.withdrawalAt >= 0 {
		r.PostWithdrawal = windowQuality(m.post)
	}
	for _, a := range m.alarmList {
		r.Alarms = append(r.Alarms, a.status())
	}
	return r
}
