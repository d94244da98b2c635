package viracocha

import (
	"encoding/json"
	"fmt"
	"os"
)

// StatsReportMarker identifies a stats-report JSON document; tools
// (viracocha-inspect) detect it before attempting any binary decode.
const StatsReportMarker = "v1"

// StatsReport is the server's operational snapshot, written on graceful
// shutdown (the server's -stats flag) or on demand. It bundles the counters
// an operator reads after a run: admission control, the DMS memory budget,
// result memoization, the write-ahead log, and the retained finished
// requests' timing records.
type StatsReport struct {
	// Marker is always StatsReportMarker; its JSON key doubles as the file
	// format signature.
	Marker   string           `json:"viracocha_stats"`
	Overload OverloadCounters `json:"overload"`
	Budget   BudgetStats      `json:"budget"`
	Memo     MemoStats        `json:"memo"`
	WAL      WALStats         `json:"wal"`
	Requests []RequestStats   `json:"requests"`
	// RequestsDropped counts the older finished-request records the scheduler
	// evicted to keep its table bounded (it retains the newest 8192).
	RequestsDropped int64 `json:"requests_dropped"`
}

// StatsReport snapshots the system's counters and finished requests.
func (s *System) StatsReport() StatsReport {
	return StatsReport{
		Marker:          StatsReportMarker,
		Overload:        s.OverloadStats(),
		Budget:          s.DMSBudget(),
		Memo:            s.MemoStats(),
		WAL:             s.WALStats(),
		Requests:        s.AllStats(),
		RequestsDropped: s.Runtime.Sched.FinishedDropped(),
	}
}

// WriteStatsReport writes the snapshot as indented JSON to path.
func (s *System) WriteStatsReport(path string) error {
	data, err := json.MarshalIndent(s.StatsReport(), "", " ")
	if err != nil {
		return fmt.Errorf("viracocha: encoding stats report: %w", err)
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
