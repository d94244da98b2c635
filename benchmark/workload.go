package main

import (
	"fmt"
	"math"
	"math/rand"
	"strconv"
)

// request is one generated command: what the server is sent (command +
// params) plus the fields the verifier needs to rebuild a kernel reference.
type request struct {
	Command string
	Params  map[string]string
	Step    int
	Value   float64 // iso value or λ2 threshold
}

// key identifies the reference result of a request.
func (r request) key() string {
	return r.Command + "|" + strconv.Itoa(r.Step) + "|" + r.Params[valueParam(r.Command)]
}

func valueParam(command string) string {
	if command == "vortex.streamed" {
		return "lambda2"
	}
	return "iso"
}

// workload describes one traffic mix. Every size is per second of nominal run
// length: the measured request count is rate × seconds, fixed before the run
// starts, so counts, allocations and the live heap repeat exactly and a
// faster build is not charged for doing more work.
type workload struct {
	Name string
	Why  string

	Dataset string
	Scale   int
	Steps   int // time steps written to disk and registered
	Command string

	Salt      int64   // mixed into the seed; equal salts draw the same request stream
	Clients   int     // closed-loop connections, each one request in flight, in lockstep
	Rate      float64 // measured requests per client per nominal second
	MemBudget int64   // Overload.MemBudget (0 = unlimited)
	Memo      bool    // Options.Memo
	Durable   bool    // RemoteClient.Resume against a WAL with fsync always

	// stream returns the generator of the workload's request stream: each
	// call appends the next block of blockLen requests. list(n) is the first
	// n requests, so a shorter list is a prefix of a longer one.
	stream func(w *workload, rng *rand.Rand) func(dst []request) []request
}

// blockLen is the stratification unit of every request stream: each run of
// blockLen consecutive requests covers the whole value range evenly, so two
// seeds differ in order and jitter but hardly in total work.
const blockLen = 32

// tinyVariant rewrites a workload onto the 4-block "tiny" data set for the
// smoke test: same command, same server options, a value range the tiny
// fields cross, five requests per nominal second.
func (w workload) tinyVariant() workload {
	w.Dataset, w.Scale, w.Steps = "tiny", 1, 2
	w.Rate = 5 // a handful of requests per nominal second
	if w.MemBudget > 0 {
		w.MemBudget = 64 << 10
	}
	return w
}

// valueRange is the slider range of a workload's command on its data set.
// (On "tiny", pressure is x + step over x ∈ [0,4], and λ2 is −1 everywhere:
// its vortex requests run the whole pipeline and return no triangle.)
func (w *workload) valueRange() (lo, hi float64) {
	switch {
	case w.Command == "vortex.streamed":
		return -1.5, -0.5
	case w.Dataset == "tiny":
		return 1.2, 3.8
	}
	return 300, 700
}

func (w *workload) request(step int, value float64) request {
	v := strconv.FormatFloat(value, 'f', 4, 64)
	value, _ = strconv.ParseFloat(v, 64) // the reference sees what the server parses
	p := map[string]string{
		"dataset": w.Dataset,
		"step":    strconv.Itoa(step),
		"workers": "2",
	}
	p[valueParam(w.Command)] = v
	return request{Command: w.Command, Params: p, Step: step, Value: value}
}

// stratified returns blockLen values, one per equal stratum of the
// workload's range with uniform jitter inside it, in shuffled order.
func (w *workload) stratified(rng *rand.Rand) [blockLen]float64 {
	lo, hi := w.valueRange()
	width := (hi - lo) / blockLen
	var out [blockLen]float64
	for i, s := range rng.Perm(blockLen) {
		out[i] = lo + (float64(s)+rng.Float64())*width
	}
	return out
}

// sliderStream drags the iso slider at random over resident steps: stratified
// values, and steps in one fresh shuffle of all steps after another, so any
// Steps consecutive requests starting on a multiple of Steps touch every
// step.
func sliderStream(w *workload, rng *rand.Rand) func([]request) []request {
	return func(dst []request) []request {
		var steps []int
		for i, v := range w.stratified(rng) {
			if i%w.Steps == 0 {
				steps = rng.Perm(w.Steps)
			}
			dst = append(dst, w.request(steps[i%w.Steps], v))
		}
		return dst
	}
}

// sweepStream walks the steps in file order (0,1,…,Steps-1,0,…), the access
// pattern OBL prefetching is built for, with stratified thresholds.
func sweepStream(w *workload, rng *rand.Rand) func([]request) []request {
	n := 0
	return func(dst []request) []request {
		for _, v := range w.stratified(rng) {
			dst = append(dst, w.request(n%w.Steps, v))
			n++
		}
		return dst
	}
}

// memoPositions is the number of slider positions of shared_view_memo; with
// its 4 steps that is 32 distinct request keys, one block of the stream.
const memoPositions = 8

// sharedStream draws the slider positions once per seed, one per stratum,
// and visits every (position, step) pair once per block in shuffled order.
func sharedStream(w *workload, rng *rand.Rand) func([]request) []request {
	lo, hi := w.valueRange()
	width := (hi - lo) / memoPositions
	var pos [memoPositions]float64
	for k := range pos {
		pos[k] = lo + (float64(k)+rng.Float64())*width
	}
	return func(dst []request) []request {
		for _, i := range rng.Perm(memoPositions * w.Steps) {
			dst = append(dst, w.request(i%w.Steps, pos[i/w.Steps]))
		}
		return dst
	}
}

// workloads lists the four traffic mixes; names are final. Rates were sized
// on the 2-core reference host so that the measured phase of each lasts about
// the nominal run length.
func workloads() []workload {
	return []workload{
		{
			Name:    "iso_slider_warm",
			Why:     "paper Fig. 8 interaction: resident blocks, so iso kernel + mesh encode + comm + bridge + client decode/merge set the time",
			Dataset: "engine", Scale: 3, Steps: 4, Command: "iso.viewer",
			Clients: 1, Rate: 30, stream: sliderStream,
		},
		{
			Name:    "vortex_timesweep_cold",
			Why:     "time sweep under a 16 MiB DMS budget: every step misses, so storage, the DMS miss path, OBL prefetch and the lambda2 kernel are on the critical path",
			Dataset: "propfan", Scale: 1, Steps: 12, Command: "vortex.streamed", Salt: 1,
			Clients: 1, Rate: 6.5, MemBudget: 4 << 20, stream: sweepStream,
		},
		{
			Name:    "durable_wal_stream",
			Why:     "the iso_slider_warm list on a durable session with WAL fsync always: every streamed frame is stamped, retained, mirrored, appended and synced",
			Dataset: "engine", Scale: 3, Steps: 4, Command: "iso.viewer",
			// Salt 0 like iso_slider_warm: its list is a prefix of that one.
			Clients: 1, Rate: 16, Durable: true, stream: sliderStream,
		},
		{
			Name:    "shared_view_memo",
			Why:     "2 clients send the identical 32-key list with memo on: extraction is bypassed, so replay, multicast and delivery fan-out are what is left",
			Dataset: "engine", Scale: 3, Steps: 4, Command: "iso.viewer",
			Salt: 2, Clients: 2, Rate: 44, Memo: true, stream: sharedStream,
		},
	}
}

func workloadByName(name string) (workload, error) {
	for _, w := range workloads() {
		if w.Name == name {
			return w, nil
		}
	}
	return workload{}, fmt.Errorf("unknown workload %q", name)
}

// list returns the first n requests of the workload's stream for seed: a
// pure function of (workload, seed, n) and the only use of randomness.
func (w *workload) list(seed int64, n int) []request {
	rng := rand.New(rand.NewSource(seed*4 + w.Salt))
	next := w.stream(w, rng)
	var out []request
	for len(out) < n {
		out = next(out)
	}
	return out[:n]
}

// counts turns a nominal run length into the fixed request counts of a run:
// measured requests per client and the unmeasured warm-up prefix (10 %, at
// least one pass over every step or memo key).
func (w *workload) counts(seconds float64) (warm, measured int) {
	measured = int(math.Round(w.Rate * seconds))
	if measured < 1 {
		measured = 1
	}
	warm = (measured + 9) / 10
	min := w.Steps // every step resident
	switch {
	case w.Memo:
		min = memoPositions * w.Steps // every key cached
	case w.MemBudget > 0:
		min = 1 // nothing stays resident: there is nothing to fill
	}
	if warm < min {
		warm = min
	}
	return warm, measured
}
