package main

import (
	"math"
	"sort"
)

// metric is one named number of a run, with the sample count behind it and
// the quartiles of those samples where there are several.
type metric struct {
	Name  string  `json:"name"`
	Unit  string  `json:"unit"`
	Value float64 `json:"value"`
	N     int     `json:"n"`
	Q1    float64 `json:"q1"`
	Q3    float64 `json:"q3"`
	// How says where the number comes from: "client" (timed around
	// RemoteClient.Run), "direct" (a public function timed on the workload's
	// inputs), "counter" (read from the public stats), "ladder" (difference
	// of two nesting levels), "computed" or "derived" (arithmetic on other
	// numbers, not a measurement), "runtime" (runtime.MemStats).
	How string `json:"how"`
}

// finite replaces NaN and ±Inf, which JSON cannot carry and the contract
// forbids, by 0.
func finite(x float64) float64 {
	if math.IsNaN(x) || math.IsInf(x, 0) {
		return 0
	}
	return x
}

// dist is a metric that is the p-th percentile of samples.
func dist(name, unit, how string, xs []float64, p float64) metric {
	q1, q3 := quartiles(xs)
	return metric{Name: name, Unit: unit, Value: finite(percentile(xs, p)), N: len(xs), Q1: finite(q1), Q3: finite(q3), How: how}
}

// avg is a metric that is the mean of samples.
func avg(name, unit, how string, xs []float64) metric {
	q1, q3 := quartiles(xs)
	return metric{Name: name, Unit: unit, Value: finite(mean(xs)), N: len(xs), Q1: finite(q1), Q3: finite(q3), How: how}
}

// single is a metric read once; n is the number of requests it covers.
func single(name, unit, how string, v float64, n int) metric {
	return metric{Name: name, Unit: unit, Value: finite(v), N: n, How: how}
}

// latencies splits successful samples into first-partial and total times (ms).
func latencies(samples []sample) (first, total []float64) {
	for _, s := range samples {
		if s.Err == nil {
			first = append(first, ms(s.First))
			total = append(total, ms(s.Total))
		}
	}
	return first, total
}

// parts is how many consecutive parts the measured phase is cut into. Every
// timing metric is the median over the parts of the part's own value, so a
// stall of the host — a burst of disk write-back under the WAL's fsyncs,
// a noisy neighbour — that hits one part does not move the run's number.
const parts = 5

// overParts evaluates f on each part of samples (which are in order of
// sending) and returns the median of the results with their quartiles.
func overParts(name, unit string, samples []sample, f func([]sample) float64) metric {
	var vals []float64
	for p := 0; p < parts; p++ {
		part := samples[p*len(samples)/parts : (p+1)*len(samples)/parts]
		if v := f(part); !math.IsNaN(v) {
			vals = append(vals, v)
		}
	}
	m := dist(name, unit, "client", vals, 0.5)
	m.N = len(samples)
	return m
}

// throughput is requests completed per second over the span of samples.
func throughput(samples []sample) float64 {
	if len(samples) == 0 {
		return math.NaN()
	}
	start, end := samples[0].Sent, samples[0].Sent
	done := 0
	for _, s := range samples {
		if s.Err == nil {
			done++
		}
		if t := s.Sent.Add(s.Total); t.After(end) {
			end = t
		}
	}
	return float64(done) / end.Sub(start).Seconds()
}

// endToEndMetrics turns an untraced run into the end-to-end metrics. Memory
// numbers cover client and server alike: they share one process.
func endToEndMetrics(e *endToEnd) []metric {
	n := len(e.Samples)
	per := func(delta uint64, scale float64) float64 { return float64(delta) / scale / float64(n) }
	latency := func(name string, total bool, p float64) metric {
		return overParts(name, "ms", e.Samples, func(part []sample) float64 {
			first, tot := latencies(part)
			if total {
				return percentile(tot, p)
			}
			return percentile(first, p)
		})
	}
	return []metric{
		dist("setup_s", "s", "client", e.Setup, 0.5),
		latency("first_partial_ms_p50", false, 0.5),
		latency("first_partial_ms_p90", false, 0.9),
		latency("total_ms_p50", true, 0.5),
		latency("total_ms_p90", true, 0.9),
		overParts("requests_per_s", "1/s", e.Samples, throughput),
		single("alloc_mb_per_req", "MB", "runtime", per(e.Mem1.TotalAlloc-e.Mem0.TotalAlloc, 1e6), n),
		single("allocs_per_req", "1", "runtime", per(e.Mem1.Mallocs-e.Mem0.Mallocs, 1), n),
		single("live_heap_mb", "MB", "runtime", float64(e.LiveHeap)/1e6, n),
	}
}

// tailColumns adds the percentiles beyond p90 that have at least ten
// samples beyond them; they are printed, not named metrics.
func tailColumns(dst map[string]float64, prefix string, xs []float64) {
	if len(xs) >= 200 {
		dst[prefix+"_p95"] = percentile(xs, 0.95)
	}
	if len(xs) >= 1000 {
		dst[prefix+"_p99"] = percentile(xs, 0.99)
	}
}

func sortedKeys(m map[string]float64) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
