// Command benchmark is the repository's end-to-end benchmark: it serves an
// in-process viracocha.System under the real clock on a loopback TCP listener
// and drives it through viracocha.RemoteClient against block files it wrote
// itself, prints every metric by name and verifies every result against the
// extraction kernels. See README.md.
//
//	go run -C benchmark . --workload iso_slider_warm --seed 1 --seconds 10 --trace 0
//	go run -C benchmark . -seed 1 -out out/a.json        # all four workloads
//	go run -C benchmark . -compare out/a.json out/b.json # A/A or parent/change
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
	"time"
)

// defaultSeed is the seed the recorded baseline uses.
const defaultSeed = 20040611

// specPath is BENCHMARK.json seen from this directory, where `go run -C
// benchmark` and `go test` both run.
const specPath = "../BENCHMARK.json"

// spec is BENCHMARK.json: the names, units and bounds the harness must emit
// and -compare judges by.
type spec struct {
	RunSeconds int `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []specMetric `json:"end_to_end"`
	PerLayer []specMetric `json:"per_layer"`
}

type specMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

func loadSpec() (*spec, error) {
	buf, err := os.ReadFile(specPath)
	if err != nil {
		return nil, err
	}
	var s spec
	if err := json.Unmarshal(buf, &s); err != nil {
		return nil, fmt.Errorf("%s: %w", specPath, err)
	}
	return &s, nil
}

// environment is recorded with every report, so that two reports are only
// compared knowingly across hosts.
type environment struct {
	GoVersion  string `json:"go_version"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	NumCPU     int    `json:"nproc"`
	Commit     string `json:"commit"`
	ScratchFS  string `json:"scratch_fs"` // filesystem of the data and WAL directories
}

func readEnvironment(scratch string) environment {
	commit := "unknown" // the driver's checkout is not a git repository
	if out, err := exec.Command("git", "rev-parse", "--short", "HEAD").Output(); err == nil {
		commit = strings.TrimSpace(string(out))
	}
	return environment{
		GoVersion:  runtime.Version(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		NumCPU:     runtime.NumCPU(),
		Commit:     commit,
		ScratchFS:  fsType(scratch),
	}
}

// fsType names the filesystem holding dir, from the mount table: the entry
// with the longest mount point that is a prefix of dir.
func fsType(dir string) string {
	abs, err := filepath.Abs(dir)
	if err != nil {
		return "unknown"
	}
	buf, err := os.ReadFile("/proc/mounts")
	if err != nil {
		return "unknown"
	}
	best, kind := "", "unknown"
	for _, line := range strings.Split(string(buf), "\n") {
		f := strings.Fields(line)
		if len(f) < 3 {
			continue
		}
		mp := f[1]
		if (abs == mp || strings.HasPrefix(abs, strings.TrimSuffix(mp, "/")+"/")) && len(mp) > len(best) {
			best, kind = mp, f[2]
		}
	}
	return kind
}

// runRecord is one workload run as written to -out and read by -compare.
type runRecord struct {
	Workload  string   `json:"workload"`
	Seed      int64    `json:"seed"`
	Seconds   float64  `json:"seconds"`
	Traced    bool     `json:"traced"`
	Attempted int      `json:"attempted"`
	Failed    int      `json:"failed"`
	DatagenS  float64  `json:"datagen_s"`
	Metrics   []metric `json:"metrics"`
	// Extra holds the percentiles printed beside the named metrics where the
	// sample count supports them; they are not metrics of BENCHMARK.json.
	Extra map[string]float64 `json:"extra,omitempty"`
}

// report is the content of an -out file. Runs accumulate: running again with
// the same -out appends, which is how a set of repetitions is collected.
type report struct {
	Env  environment `json:"env"`
	Runs []runRecord `json:"runs"`
}

func appendReport(path string, env environment, runs []runRecord) error {
	var r report
	if buf, err := os.ReadFile(path); err == nil {
		if err := json.Unmarshal(buf, &r); err != nil {
			return fmt.Errorf("%s: %w", path, err)
		}
	} else if !os.IsNotExist(err) {
		return err
	}
	r.Env = env
	r.Runs = append(r.Runs, runs...)
	buf, err := json.MarshalIndent(r, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, buf, 0o644)
}

// runWorkload runs one workload, untraced or traced, inside scratch.
func runWorkload(w workload, seed int64, seconds float64, traced bool, scratch string) (runRecord, []string, error) {
	rec := runRecord{Workload: w.Name, Seed: seed, Seconds: seconds, Traced: traced}
	t0 := time.Now()
	data, err := writeDataSet(scratch, &w)
	if err != nil {
		return rec, nil, err
	}
	if !traced {
		rec.DatagenS = time.Since(t0).Seconds()
		warm, measured := w.counts(seconds)
		reqs := w.list(seed, warm+measured)
		e, err := measure(&w, data, reqs, warm, scratch)
		if err != nil {
			return rec, nil, err
		}
		v := newVerifier(data)
		if err := v.prepare(reqs); err != nil {
			return rec, nil, err
		}
		all := append(append([]sample(nil), e.Warmed...), e.Samples...)
		var reasons []string
		rec.Attempted = len(all)
		rec.Failed, reasons = v.check(reqs, all)
		rec.Metrics = endToEndMetrics(e)
		first, total := latencies(e.Samples)
		rec.Extra = map[string]float64{}
		tailColumns(rec.Extra, "first_partial_ms", first)
		tailColumns(rec.Extra, "total_ms", total)
		return rec, reasons, nil
	}

	// The ladder climbs on iso_slider_warm's data whatever the workload is.
	ladderW, err := workloadByName("iso_slider_warm")
	if err != nil {
		return rec, nil, err
	}
	if w.Dataset == "tiny" {
		ladderW = ladderW.tinyVariant()
	}
	ladderData := data
	if ladderW.Dataset != w.Dataset || ladderW.Scale != w.Scale || ladderW.Steps > w.Steps {
		if ladderData, err = writeDataSet(scratch, &ladderW); err != nil {
			return rec, nil, err
		}
	}
	rec.DatagenS = time.Since(t0).Seconds()
	tr, err := runTraced(&w, data, &ladderW, ladderData, seed, seconds, scratch)
	if err != nil {
		return rec, nil, err
	}
	rec.Attempted, rec.Failed, rec.Metrics = tr.Attempted, tr.Failed, tr.Metrics
	tracePath := filepath.Join(filepath.Dir(scratch), fmt.Sprintf("trace-%s-seed%d.json", w.Name, seed))
	if err := writeChromeTrace(tracePath, tr.Epoch, tr.Spans); err != nil {
		return rec, nil, err
	}
	if self := selfTimes(tr.Spans); len(self) > 0 {
		fmt.Printf("  (request self time outside core.queue + core.group: p50 %.3f ms, n=%d)\n", median(self), len(self))
	}
	fmt.Printf("  (%d spans written to %s)\n", len(tr.Spans), tracePath)
	return rec, tr.Reasons, nil
}

// printRecord prints every metric of a run by name with unit, sample count
// and spread.
func printRecord(rec runRecord, reasons []string) {
	mode := "end-to-end, tracing off"
	if rec.Traced {
		mode = "per-layer, traced"
	}
	fmt.Printf("%s  seed %d  %.0f s nominal  (%s)\n", rec.Workload, rec.Seed, rec.Seconds, mode)
	fmt.Printf("  %-40s %14s %-8s %7s %12s %12s  %s\n", "metric", "value", "unit", "n", "q1", "q3", "how")
	for _, m := range rec.Metrics {
		q1, q3 := "-", "-"
		if m.N >= 2 && (m.Q1 != 0 || m.Q3 != 0) {
			q1, q3 = fmt.Sprintf("%.4g", m.Q1), fmt.Sprintf("%.4g", m.Q3)
		}
		fmt.Printf("  %-40s %14.6g %-8s %7d %12s %12s  %s\n", m.Name, m.Value, m.Unit, m.N, q1, q3, m.How)
	}
	for _, k := range sortedKeys(rec.Extra) {
		fmt.Printf("  %-40s %14.6g %-8s (extra column, not a named metric)\n", k, rec.Extra[k], "ms")
	}
	fmt.Printf("  failed_share %.6g  (attempted %d, succeeded %d, failed %d)   datagen_s %.3f\n",
		ratio(float64(rec.Failed), float64(rec.Attempted)), rec.Attempted, rec.Attempted-rec.Failed, rec.Failed, rec.DatagenS)
	for _, r := range reasons {
		fmt.Printf("  FAILED %s\n", r)
	}
}

// resultLine is the contract's last line of standard output.
func resultLine(rec runRecord) string {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{Correct: rec.Failed == 0, Attempted: rec.Attempted, Failed: rec.Failed, Metrics: map[string]value{}}
	for _, m := range rec.Metrics {
		out.Metrics[m.Name] = value{m.Value, m.Unit}
	}
	buf, _ := json.Marshal(out) // plain numbers and strings: cannot fail
	return string(buf)
}

func run() error {
	var (
		name    = flag.String("workload", "", "workload to run (default: all four)")
		seed    = flag.Int64("seed", defaultSeed, "seed of the request lists: the only source of randomness")
		seconds = flag.Float64("seconds", 0, "nominal run length; request counts are rate × seconds (default: run_seconds of BENCHMARK.json)")
		trace   = flag.Int("trace", 0, "1 = traced run printing the per-layer metrics, 0 = end-to-end metrics with tracing off")
		out     = flag.String("out", "", "append the runs to this JSON report, the input of -compare")
		compare = flag.Bool("compare", false, "compare two reports: benchmark -compare a.json b.json")
	)
	flag.Parse()
	if *compare {
		if flag.NArg() != 2 {
			return fmt.Errorf("-compare takes two report files")
		}
		return compareReports(flag.Arg(0), flag.Arg(1))
	}
	if *seconds <= 0 {
		s, err := loadSpec()
		if err != nil {
			return err
		}
		*seconds = float64(s.RunSeconds)
	}
	ws := workloads()
	if *name != "" {
		w, err := workloadByName(*name)
		if err != nil {
			return err
		}
		ws = []workload{w}
	}

	if err := os.MkdirAll("out", 0o755); err != nil {
		return err
	}
	env := readEnvironment("out")
	fmt.Printf("%s GOMAXPROCS=%d nproc=%d commit=%s scratch-fs=%s\n", env.GoVersion, env.GOMAXPROCS, env.NumCPU, env.Commit, env.ScratchFS)
	var recs []runRecord
	failed := 0
	for _, w := range ws {
		// A fresh directory and a fresh System per workload: no cache, memo
		// or log state leaks from one to the next.
		scratch, err := os.MkdirTemp("out", "run-")
		if err != nil {
			return err
		}
		rec, reasons, err := runWorkload(w, *seed, *seconds, *trace != 0, scratch)
		if rmErr := os.RemoveAll(scratch); err == nil {
			err = rmErr
		}
		if err != nil {
			return fmt.Errorf("%s: %w", w.Name, err)
		}
		printRecord(rec, reasons)
		fmt.Println(resultLine(rec))
		recs = append(recs, rec)
		failed += rec.Failed
	}
	if *out != "" {
		if err := appendReport(*out, env, recs); err != nil {
			return err
		}
	}
	if failed > 0 {
		return fmt.Errorf("%d requests failed or returned a wrong result", failed)
	}
	return nil
}

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
}
