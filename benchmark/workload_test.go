package main

import (
	"reflect"
	"testing"
)

func TestListIsAPureFunctionOfWorkloadAndSeed(t *testing.T) {
	for _, w := range workloads() {
		a, b := w.list(7, 100), w.list(7, 100)
		if !reflect.DeepEqual(a, b) {
			t.Errorf("%s: same seed gave two different lists", w.Name)
		}
		if reflect.DeepEqual(a, w.list(8, 100)) {
			t.Errorf("%s: seeds 7 and 8 gave the same list", w.Name)
		}
		if !reflect.DeepEqual(a[:40], w.list(7, 40)) {
			t.Errorf("%s: a shorter list is not a prefix of a longer one", w.Name)
		}
	}
}

func TestDurableListIsAPrefixOfTheSliderList(t *testing.T) {
	iso, err := workloadByName("iso_slider_warm")
	if err != nil {
		t.Fatal(err)
	}
	dur, err := workloadByName("durable_wal_stream")
	if err != nil {
		t.Fatal(err)
	}
	wi, mi := iso.counts(10)
	wd, md := dur.counts(10)
	if wd+md >= wi+mi {
		t.Fatalf("durable list (%d) is not shorter than the slider list (%d)", wd+md, wi+mi)
	}
	if !reflect.DeepEqual(dur.list(3, wd+md), iso.list(3, wi+mi)[:wd+md]) {
		t.Error("durable_wal_stream's list is not a prefix of iso_slider_warm's")
	}
}

func TestRequestsCarryNoServerOverrides(t *testing.T) {
	for _, w := range workloads() {
		for _, r := range w.list(1, blockLen) {
			for _, k := range []string{"index", "coalesce", "memo", "redistribute"} {
				if _, ok := r.Params[k]; ok {
					t.Fatalf("%s: request overrides the server default %q", w.Name, k)
				}
			}
		}
	}
}

func TestSharedViewHasThirtyTwoKeys(t *testing.T) {
	w, err := workloadByName("shared_view_memo")
	if err != nil {
		t.Fatal(err)
	}
	keys := map[string]bool{}
	for _, r := range w.list(5, 10*blockLen) {
		keys[r.key()] = true
	}
	if len(keys) != memoPositions*w.Steps {
		t.Errorf("%d distinct keys, want %d", len(keys), memoPositions*w.Steps)
	}
}

func TestQuartilesMatchPythonExclusiveMethod(t *testing.T) {
	// statistics.quantiles([1, 2, 4, 7, 11, 16, 22, 29, 37, 46], n=4)
	q1, q3 := quartiles([]float64{46, 1, 2, 4, 7, 11, 16, 22, 29, 37})
	if q1 != 3.5 || q3 != 31 {
		t.Errorf("quartiles = %v, %v; want 3.5, 31", q1, q3)
	}
	// statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
	if q1, q3 := quartiles([]float64{1, 2}); q1 != 0.75 || q3 != 2.25 {
		t.Errorf("quartiles of two values = %v, %v; want 0.75, 2.25", q1, q3)
	}
}

func TestJudge(t *testing.T) {
	lower := specMetric{Name: "total_ms_p50", Better: "lower", Bound: 0.10}
	higher := specMetric{Name: "requests_per_s", Better: "higher", Bound: 0.10}
	for _, c := range []struct {
		name string
		a, b []float64
		m    specMetric
		want string
	}{
		{"same", []float64{10, 10.1, 9.9, 10}, []float64{10.2, 10, 10.1, 10.3}, lower, "ok"},
		{"slower", []float64{10, 10.1, 9.9, 10}, []float64{12, 12.1, 11.9, 12}, lower, "REGRESSION"},
		{"faster", []float64{10, 10.1, 9.9, 10}, []float64{8, 8.1, 7.9, 8}, lower, "ok"},
		{"less throughput", []float64{100, 101, 99, 100}, []float64{80, 81, 79, 80}, higher, "REGRESSION"},
		{"noisy", []float64{10, 14, 8, 12}, []float64{10, 10.1, 9.9, 10}, lower, "unresolved"},
		{"single runs", []float64{10}, []float64{10.5}, lower, "ok"},
	} {
		if got := judge(c.a, c.b, c.m).Verdict; got != c.want {
			t.Errorf("%s: verdict %q, want %q", c.name, got, c.want)
		}
	}
}
