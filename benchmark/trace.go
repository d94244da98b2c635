package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"time"

	"viracocha"
	"viracocha/internal/mesh"
	"viracocha/internal/vortex"
)

// span is one timed interval the harness recorded around a call into a layer.
// Spans of one request share Req, the request's index in the traced pass.
type span struct {
	Name  string
	Req   int
	Lane  int // Chrome trace thread: client number, or 10+level for the ladder
	Start time.Time
	Dur   time.Duration
	Child bool // nested inside the request span of the same Req
}

// captureRequests is how many traced requests keep their partial meshes for
// the direct layer timings; a request's partials are a few MB.
const captureRequests = 8

// tracedRun is everything the traced run of one workload produced.
type tracedRun struct {
	Metrics   []metric
	Spans     []span
	Epoch     time.Time // zero of the trace's time axis: the served system's birth
	Attempted int
	Failed    int
	Reasons   []string
}

// tracedPass is what one pass over a served system left behind.
type tracedPass struct {
	Warm     int
	Reqs     []request
	Warmed   []sample // the warm-up prefix
	Samples  []sample // the pass: even offsets untraced, odd offsets traced
	Captured [][]*mesh.Mesh
	Before   counters // after the warm-up
	After    counters // after the pass
	Stats    []viracocha.RequestStats
	Born     time.Time
	Config   serverConfig
	WALBytes int64
}

// traced reports whether request i of the pass records its partials' arrival.
func (p *tracedPass) traced(i int) bool { return (i-p.Warm)%2 == 1 }

// req is the identifier traced request i carries in every span.
func (p *tracedPass) req(i int) int { return (i - p.Warm) / 2 }

// runPass serves the workload and sends it the warm-up prefix and then 2·k
// requests that alternate untraced / traced, so both halves see the same
// cache, heap and log state and their difference is the tracing overhead.
// Client 0 keeps the partial meshes of a few evenly spaced traced requests.
func runPass(w *workload, data *dataSet, seed int64, warm, k int, scratch string) (*tracedPass, error) {
	p := &tracedPass{Warm: warm, Reqs: w.list(seed, warm+2*k), Config: serverConfig{W: w, Data: data}}
	if w.Durable {
		p.Config.WALDir, p.Config.Fsync = filepath.Join(scratch, "wal-traced"), "always"
	}
	se, err := openSession(p.Config, w.Clients, w.Durable)
	if err != nil {
		return nil, err
	}
	p.Born = se.Srv.Born
	p.Warmed = drive(se.Clients, p.Reqs, 0, warm, nil)
	p.Before = readCounters(se.Srv.Sys, w.Dataset)
	passStart := time.Now()

	every := k / captureRequests
	if every < 1 {
		every = 1
	}
	p.Samples = drive(se.Clients, p.Reqs, warm, len(p.Reqs), func(c, i int) (bool, func(*viracocha.Mesh)) {
		if c != 0 || !p.traced(i) || p.req(i)%every != 0 || len(p.Captured) >= captureRequests {
			return p.traced(i), nil
		}
		p.Captured = append(p.Captured, nil) // only client 0's goroutine gets here
		slot := len(p.Captured) - 1
		return true, func(m *viracocha.Mesh) { p.Captured[slot] = append(p.Captured[slot], m) }
	})
	p.After = readCounters(se.Srv.Sys, w.Dataset)

	// The scheduler's records drain late: read them only once every client
	// is idle and a drain has seen the in-flight count reach zero.
	if err := se.Srv.Sys.Drain(5 * time.Second); err != nil {
		return nil, err
	}
	since := passStart.Sub(p.Born)
	for _, st := range se.Srv.Sys.AllStats() {
		if st.Received >= since {
			p.Stats = append(p.Stats, st)
		}
	}
	p.WALBytes = dirSize(p.Config.WALDir)
	return p, se.close()
}

// clientMetrics reports what the callbacks of the traced requests saw, the
// tracing overhead, and the spans of the pass.
func (p *tracedPass) clientMetrics() ([]metric, []span) {
	var tracedS, plainS []sample
	for _, s := range p.Samples {
		if p.traced(s.Index) {
			tracedS = append(tracedS, s)
		} else {
			plainS = append(plainS, s)
		}
	}
	_, plainTotal := latencies(plainS)
	_, tracedTotal := latencies(tracedS)
	overhead := ratio(median(tracedTotal)-median(plainTotal), median(plainTotal))

	var gaps, partials, tris []float64
	var spans []span
	for _, s := range tracedS {
		if s.Err != nil {
			continue
		}
		partials = append(partials, float64(s.Partials))
		tris = append(tris, float64(s.Tris))
		for i := 1; i < len(s.Marks); i++ {
			gaps = append(gaps, ms(s.Marks[i]-s.Marks[i-1]))
		}
		req := p.req(s.Index)
		spans = append(spans,
			span{Name: "request", Req: req, Lane: s.Client, Start: s.Sent, Dur: s.Total},
			span{Name: "remote.first_partial", Req: req, Lane: s.Client, Start: s.Sent, Dur: s.First, Child: true})
		for _, m := range s.Marks {
			spans = append(spans, span{Name: "partial", Req: req, Lane: s.Client, Start: s.Sent.Add(m), Child: true})
		}
	}
	return []metric{
		single("trace.overhead_share", "ratio", "derived", overhead, len(tracedTotal)),
		avg("remote.partials_per_req", "1", "client", partials),
		dist("remote.partial_gap_ms_p90", "ms", "client", gaps, 0.9),
		avg("mesh.tris_per_req", "1", "client", tris),
	}, append(spans, p.coreSpans()...)
}

// walMetrics reports the write-ahead log the pass left: its size, and how
// long a restart spends in RecoverWAL on it. Both are 0 without a log.
func (p *tracedPass) walMetrics() ([]metric, error) {
	recoverMs := 0.0
	if p.Config.WALDir != "" {
		sys := viracocha.New(p.Config.options())
		if err := sys.AddDatasetDir(p.Config.Data.Desc, p.Config.Data.Dir); err != nil {
			return nil, err
		}
		t0 := time.Now()
		if err := sys.RecoverWAL(); err != nil {
			return nil, fmt.Errorf("recovering the run's WAL: %w", err)
		}
		recoverMs = ms(time.Since(t0))
		err := sys.CloseWAL()
		sys.Kill()
		if err != nil {
			return nil, err
		}
	}
	return []metric{
		single("wal.disk_mb_end", "MB", "counter", float64(p.WALBytes)/1e6, len(p.Samples)),
		single("wal.recover_ms", "ms", "direct", recoverMs, 1),
	}, nil
}

// runTraced is the traced run of a workload: one pass over about a quarter
// of the requests for the client-side, counter and scheduler metrics, the
// layers timed directly on what the traced requests delivered, and the
// ladder. Every result of the pass and of the ladder is verified.
func runTraced(w *workload, data *dataSet, ladderW *workload, ladderData *dataSet, seed int64, seconds float64, scratch string) (*tracedRun, error) {
	warm, measured := w.counts(seconds)
	k := measured / 4
	if k < 2 {
		k = 2
	}
	p, err := runPass(w, data, seed, warm, k, scratch)
	if err != nil {
		return nil, err
	}
	tr := &tracedRun{Epoch: p.Born}
	tr.Metrics, tr.Spans = p.clientMetrics()
	tr.Metrics = append(tr.Metrics, counterMetrics(p.Before, p.After, len(p.Samples))...)
	tr.Metrics = append(tr.Metrics, statsMetrics(p.Stats)...)

	// Kernel references: the correctness gate, and the direct timing of the
	// iso and vortex layers on the pass's requests.
	v := newVerifier(data)
	if err := v.prepare(p.Reqs); err != nil {
		return nil, err
	}
	tr.Metrics = append(tr.Metrics, kernelMetrics(v, data, p.Reqs[warm:])...)
	all := append(append([]sample(nil), p.Warmed...), p.Samples...)
	tr.Attempted = len(all)
	tr.Failed, tr.Reasons = v.check(p.Reqs, all)

	for _, direct := range []func() ([]metric, error){
		p.walMetrics,
		func() ([]metric, error) { return deliveryMetrics(p.Captured) },
		func() ([]metric, error) { return storageMetrics(data) },
		func() ([]metric, error) { return dmsMetrics(data) },
		func() ([]metric, error) { return walAppendMetrics(scratch, p.Captured) },
	} {
		ms, err := direct()
		if err != nil {
			return nil, err
		}
		tr.Metrics = append(tr.Metrics, ms...)
	}

	// The ladder always climbs on the head of iso_slider_warm's list.
	steps := int(seconds*3 + 0.5)
	if steps < 3 {
		steps = 3
	}
	lreqs := ladderW.list(seed, ladderWarm(ladderW)+steps)
	lv := newVerifier(ladderData)
	if err := lv.prepare(lreqs); err != nil {
		return nil, err
	}
	l, err := runLadder(ladderW, ladderData, lreqs, scratch, lv)
	if err != nil {
		return nil, err
	}
	tr.Metrics = append(tr.Metrics, l.metrics()...)
	tr.Spans = append(tr.Spans, l.Spans...)
	failed, reasons := lv.check(lreqs, l.Samples)
	tr.Attempted += len(l.Samples)
	tr.Failed += failed
	tr.Reasons = append(tr.Reasons, reasons...)
	return tr, nil
}

// kernelMetrics reports the extraction kernels timed directly, single-
// threaded, on the requests' own (step, value) inputs. A workload whose
// command never evaluates λ2 still gets the vortex kernel timed on step 0,
// so every layer metric exists on every workload.
func kernelMetrics(v *verifier, data *dataSet, reqs []request) []metric {
	var extract, l2 []float64
	var cells, nodes, extractS, l2S float64
	for _, r := range reqs {
		c := v.costs[r.key()]
		extract = append(extract, ms(c.Extract))
		cells += float64(c.Cells)
		extractS += c.Extract.Seconds()
		if c.Lambda2 > 0 {
			l2 = append(l2, ms(c.Lambda2))
			nodes += float64(c.Nodes)
			l2S += c.Lambda2.Seconds()
		}
	}
	if len(l2) == 0 {
		if blocks, err := stepBlocks(data, 0); err == nil {
			fields, d := lambda2Fields(blocks)
			for i, f := range fields {
				nodes += float64(blocks[i].NumNodes())
				vortex.ReleaseField(f)
			}
			l2, l2S = []float64{ms(d)}, d.Seconds()
		}
	}
	return []metric{
		avg("iso.extract_ms_per_req", "ms", "direct", extract),
		single("iso.mcells_per_s", "Mcell/s", "direct", ratio(cells/1e6, extractS), len(extract)),
		avg("vortex.lambda2_ms_per_req", "ms", "direct", l2),
		single("vortex.mnodes_per_s", "Mnode/s", "direct", ratio(nodes/1e6, l2S), len(l2)),
	}
}

// coreSpans rebuilds core.queue and core.group spans from the scheduler's
// records. The records carry clock times since the system's birth, the same
// monotonic clock the client spans use; records and requests are matched in
// order of arrival, and not at all when their counts differ.
func (p *tracedPass) coreSpans() []span {
	var facing []viracocha.RequestStats
	for _, st := range p.Stats {
		// With the memo on, client-facing records are the subscribers'
		// (no work group of their own); producers are internal requests.
		if !p.Config.W.Memo || st.Workers == 0 {
			facing = append(facing, st)
		}
	}
	if len(facing) != len(p.Samples) {
		return nil
	}
	sort.SliceStable(facing, func(i, j int) bool { return facing[i].Received < facing[j].Received })
	var out []span
	for i, s := range p.Samples { // already in order of sending
		if !p.traced(s.Index) {
			continue
		}
		st, req := facing[i], p.req(s.Index)
		out = append(out,
			span{Name: "core.queue", Req: req, Lane: s.Client, Start: p.Born.Add(st.Received), Dur: st.Started - st.Received, Child: true},
			span{Name: "core.group", Req: req, Lane: s.Client, Start: p.Born.Add(st.End - st.TotalRuntime()), Dur: st.TotalRuntime(), Child: true})
	}
	return out
}

// selfTimes returns, per request span, its duration minus what its core.*
// children cover: the time spent outside the scheduler's view — socket,
// bridge, client decode and merge.
func selfTimes(spans []span) []float64 {
	child := map[[2]int]time.Duration{}
	for _, s := range spans {
		if s.Child && (s.Name == "core.queue" || s.Name == "core.group") {
			child[[2]int{s.Lane, s.Req}] += s.Dur
		}
	}
	var out []float64
	for _, s := range spans {
		if s.Name == "request" {
			if c, ok := child[[2]int{s.Lane, s.Req}]; ok {
				out = append(out, ms(s.Dur-c))
			}
		}
	}
	return out
}

// writeChromeTrace writes spans as Chrome trace-event JSON (load it in
// chrome://tracing or ui.perfetto.dev): complete events for intervals,
// instant events for partial arrivals, one thread per client and per ladder
// level, the request index in args.
func writeChromeTrace(path string, epoch time.Time, spans []span) error {
	type event struct {
		Name string         `json:"name"`
		Ph   string         `json:"ph"`
		Ts   float64        `json:"ts"`
		Dur  *float64       `json:"dur,omitempty"`
		Pid  int            `json:"pid"`
		Tid  int            `json:"tid"`
		S    string         `json:"s,omitempty"`
		Args map[string]int `json:"args"`
	}
	events := make([]event, 0, len(spans))
	for _, s := range spans {
		e := event{Name: s.Name, Ph: "X", Ts: us(s.Start.Sub(epoch)), Pid: 1, Tid: s.Lane, Args: map[string]int{"req": s.Req}}
		if s.Name == "partial" {
			e.Ph, e.S = "i", "t"
		} else {
			d := us(s.Dur)
			e.Dur = &d
		}
		events = append(events, e)
	}
	buf, err := json.Marshal(map[string]any{"traceEvents": events, "displayTimeUnit": "ms"})
	if err != nil {
		return err
	}
	return os.WriteFile(path, buf, 0o644)
}
