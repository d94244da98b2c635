package main

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
)

// compareReports prints, per workload × end-to-end metric, the median of each
// report's runs, how much worse b is than a as a share of a, and the bound
// from BENCHMARK.json. A pairing whose run-to-run spread within either report
// (interquartile range over median) exceeds the bound is "unresolved", never
// "ok": the benchmark cannot tell a change that small from noise. Any row
// that is not ok makes the command fail.
func compareReports(pathA, pathB string) error {
	s, err := loadSpec()
	if err != nil {
		return err
	}
	a, err := readReport(pathA)
	if err != nil {
		return err
	}
	b, err := readReport(pathB)
	if err != nil {
		return err
	}
	fmt.Printf("a: %s  (%s, commit %s, GOMAXPROCS %d, %s)\n", pathA, a.Env.GoVersion, a.Env.Commit, a.Env.GOMAXPROCS, a.Env.ScratchFS)
	fmt.Printf("b: %s  (%s, commit %s, GOMAXPROCS %d, %s)\n", pathB, b.Env.GoVersion, b.Env.Commit, b.Env.GOMAXPROCS, b.Env.ScratchFS)
	fmt.Printf("%-22s %-22s %12s %12s %9s %7s %8s %8s  %s\n", "workload", "metric", "a median", "b median", "worse by", "bound", "spread a", "spread b", "verdict")
	bad := 0
	for _, w := range s.Workloads {
		for _, m := range s.EndToEnd {
			va, vb := values(a, w.Name, m.Name), values(b, w.Name, m.Name)
			if len(va) == 0 || len(vb) == 0 {
				fmt.Printf("%-22s %-22s missing from a report (a: %d runs, b: %d runs)\n", w.Name, m.Name, len(va), len(vb))
				bad++
				continue
			}
			row := judge(va, vb, m)
			if row.Verdict != "ok" {
				bad++
			}
			fmt.Printf("%-22s %-22s %12.5g %12.5g %+8.1f%% %6.0f%% %8s %8s  %s\n", w.Name, m.Name,
				row.MedA, row.MedB, 100*row.Worse, 100*m.Bound, percent(row.SpreadA), percent(row.SpreadB), row.Verdict)
		}
	}
	if bad > 0 {
		return fmt.Errorf("%d workload × metric pairings are not ok", bad)
	}
	return nil
}

type verdict struct {
	MedA, MedB       float64
	Worse            float64 // how much worse b's median is, as a share of a's (negative = better)
	SpreadA, SpreadB float64 // IQR ÷ median of each side's runs; NaN with fewer than 4 runs
	Verdict          string
}

// judge applies the benchmark's own rule to one workload × metric pairing.
func judge(a, b []float64, m specMetric) verdict {
	v := verdict{MedA: median(a), MedB: median(b), SpreadA: spread(a), SpreadB: spread(b)}
	v.Worse = (v.MedB - v.MedA) / math.Abs(v.MedA)
	if m.Better == "higher" {
		v.Worse = -v.Worse
	}
	switch {
	case v.SpreadA > m.Bound || v.SpreadB > m.Bound:
		v.Verdict = "unresolved"
	case v.Worse > m.Bound:
		v.Verdict = "REGRESSION"
	default:
		v.Verdict = "ok"
	}
	return v
}

// spread is the interquartile range of xs as a share of their median; unknown
// (NaN) below four runs, where the quartiles are the extremes or beyond.
func spread(xs []float64) float64 {
	if len(xs) < 4 {
		return math.NaN()
	}
	q1, q3 := quartiles(xs)
	return (q3 - q1) / math.Abs(median(xs))
}

func percent(x float64) string {
	if math.IsNaN(x) {
		return "-"
	}
	return fmt.Sprintf("%.1f%%", 100*x)
}

func readReport(path string) (*report, error) {
	buf, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var r report
	if err := json.Unmarshal(buf, &r); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &r, nil
}

// values collects one metric of one workload over a report's untraced runs.
func values(r *report, workload, name string) []float64 {
	var out []float64
	for _, run := range r.Runs {
		if run.Workload != workload || run.Traced {
			continue
		}
		for _, m := range run.Metrics {
			if m.Name == name {
				out = append(out, m.Value)
			}
		}
	}
	return out
}
