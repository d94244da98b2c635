package main

import (
	"math"
	"regexp"
	"testing"
)

// TestSmoke runs every workload on the tiny data set with a handful of
// requests, untraced and traced, and checks that what the harness emits is
// exactly what BENCHMARK.json names. It asserts nothing about timing values.
func TestSmoke(t *testing.T) {
	s, err := loadSpec()
	if err != nil {
		t.Fatal(err)
	}
	if len(s.Workloads) != len(workloads()) {
		t.Fatalf("BENCHMARK.json names %d workloads, the harness has %d", len(s.Workloads), len(workloads()))
	}
	nameOK := regexp.MustCompile(`^[A-Za-z0-9_.-]+$`)
	for _, sw := range s.Workloads {
		w, err := workloadByName(sw.Name)
		if err != nil {
			t.Fatalf("BENCHMARK.json: %v", err)
		}
		w = w.tinyVariant()
		for _, traced := range []bool{false, true} {
			want := s.EndToEnd
			if traced {
				want = s.PerLayer
			}
			rec, reasons, err := runWorkload(w, 1, 1, traced, t.TempDir())
			if err != nil {
				t.Fatalf("%s traced=%v: %v", w.Name, traced, err)
			}
			if rec.Failed != 0 || rec.Attempted == 0 {
				t.Errorf("%s traced=%v: %d of %d requests failed: %v", w.Name, traced, rec.Failed, rec.Attempted, reasons)
			}
			seen := map[string]int{}
			units := map[string]string{}
			for _, m := range rec.Metrics {
				seen[m.Name]++
				units[m.Name] = m.Unit
				if !nameOK.MatchString(m.Name) {
					t.Errorf("%s: metric name %q has characters outside [A-Za-z0-9_.-]", w.Name, m.Name)
				}
				if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
					t.Errorf("%s: %s is not finite", w.Name, m.Name)
				}
			}
			for _, m := range want {
				if seen[m.Name] != 1 {
					t.Errorf("%s traced=%v: %s emitted %d times, want once", w.Name, traced, m.Name, seen[m.Name])
				}
				if units[m.Name] != m.Unit {
					t.Errorf("%s: %s has unit %q, BENCHMARK.json says %q", w.Name, m.Name, units[m.Name], m.Unit)
				}
				delete(seen, m.Name)
			}
			for name := range seen {
				t.Errorf("%s traced=%v: %s is emitted but not named in BENCHMARK.json", w.Name, traced, name)
			}
		}
	}
}
