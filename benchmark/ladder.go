package main

import (
	"fmt"
	"path/filepath"
	"time"

	"viracocha"
)

// The ladder replays one request list — the head of iso_slider_warm's — at six
// nesting levels. Each level adds one layer around the level below, so the
// difference between two neighbours is that layer's cost seen from outside:
//
//	L0 kernels only (the verifier's single-threaded reference extraction)
//	L1 in-process System.Session + Client.Run, real clock, no TCP
//	L2 loopback TCP, ephemeral session        (= iso_slider_warm)
//	L3 loopback TCP, durable session (Resume)
//	L4 L3 + write-ahead log, fsync off
//	L5 L3 + write-ahead log, fsync always     (= durable_wal_stream)
const ladderLevels = 6

// ladderWarm is the unmeasured prefix of every level: two passes over the
// data set's steps, so every block is resident.
func ladderWarm(w *workload) int { return 2 * w.Steps }

// ladder holds, per level, each request's total and first-partial time.
type ladder struct {
	Total   [ladderLevels][]float64 // ms, indexed by request
	First   [ladderLevels][]float64 // ms; levels 2…5 only
	Samples []sample                // every TCP sample, for verification
	Spans   []span
}

// runLadder runs levels 1…5 on reqs; level 0 comes from the verifier.
func runLadder(w *workload, data *dataSet, reqs []request, scratch string, v *verifier) (*ladder, error) {
	warm := ladderWarm(w)
	var l ladder
	for _, r := range reqs[warm:] {
		l.Total[0] = append(l.Total[0], ms(v.costs[r.key()].Extract))
	}

	for level := 1; level < ladderLevels; level++ {
		var samples []sample
		if level == 1 {
			samples = runInProcess(w, data, reqs, warm)
		} else {
			cfg := serverConfig{W: w, Data: data}
			switch level {
			case 4:
				cfg.WALDir, cfg.Fsync = filepath.Join(scratch, "wal-ladder-4"), "off"
			case 5:
				cfg.WALDir, cfg.Fsync = filepath.Join(scratch, "wal-ladder-5"), "always"
			}
			se, err := openSession(cfg, 1, level >= 3)
			if err != nil {
				return nil, fmt.Errorf("ladder L%d: %w", level, err)
			}
			drive(se.Clients, reqs, 0, warm, nil)
			samples = drive(se.Clients, reqs, warm, len(reqs), nil)
			if err := se.close(); err != nil {
				return nil, fmt.Errorf("ladder L%d: %w", level, err)
			}
		}
		for _, s := range samples {
			l.Total[level] = append(l.Total[level], ms(s.Total))
			l.First[level] = append(l.First[level], ms(s.First))
			l.Spans = append(l.Spans, span{
				Name: fmt.Sprintf("ladder.L%d", level), Req: s.Index - warm, Lane: 10 + level,
				Start: s.Sent, Dur: s.Total,
			})
		}
		l.Samples = append(l.Samples, samples...)
	}
	return &l, nil
}

// runInProcess is level 1: the same server options, but the client is an
// actor inside the system and no byte crosses a socket. The first partial is
// not observable there, so First stays zero.
func runInProcess(w *workload, data *dataSet, reqs []request, warm int) []sample {
	sys := viracocha.New(serverConfig{W: w, Data: data}.options())
	var out []sample
	if err := sys.AddDatasetDir(data.Desc, data.Dir); err != nil {
		return []sample{{Index: warm, Err: err}}
	}
	sys.Session(func(c *viracocha.Client) {
		for i, r := range reqs {
			s := sample{Index: i, Sent: time.Now()}
			res, err := c.Run(r.Command, r.Params)
			s.Total = time.Since(s.Sent)
			if err == nil {
				err = res.Err
			}
			if s.Err = err; err == nil {
				s.Partials = res.Partials
				s.Tris, s.Area = res.Merged.NumTriangles(), res.Merged.Area()
			}
			if i >= warm {
				out = append(out, s)
			}
		}
	})
	return out
}

// pairedDelta is the median over requests of upper[i] − lower[i]: both levels
// ran the same request, so its size cancels and only the added layer is left.
func pairedDelta(name string, upper, lower []float64) metric {
	n := len(upper)
	if len(lower) < n {
		n = len(lower)
	}
	d := make([]float64, n)
	for i := range d {
		d[i] = upper[i] - lower[i]
	}
	return dist(name, "ms", "ladder", d, 0.5)
}

// metrics turns the ladder into the per-layer metrics that rest on it.
func (l *ladder) metrics() []metric {
	out := []metric{}
	for level := range l.Total {
		out = append(out, dist(fmt.Sprintf("ladder.l%d_total_ms_p50", level), "ms", "ladder", l.Total[level], 0.5))
	}
	// Two workers share the kernel work, so the in-process overhead is what
	// level 1 takes beyond half the single-threaded kernel time: arithmetic
	// on two measurements, not a measurement.
	perWorker := make([]float64, len(l.Total[0]))
	for i, k := range l.Total[0] {
		perWorker[i] = k / 2
	}
	overhead := pairedDelta("core.overhead_ms_p50", l.Total[1], perWorker)
	overhead.How = "derived"
	return append(out,
		dist("core.inproc_total_ms_p50", "ms", "ladder", l.Total[1], 0.5),
		overhead,
		pairedDelta("remote.tcp_delta_ms_p50", l.Total[2], l.Total[1]),
		pairedDelta("durable.delta_ms_p50", l.Total[3], l.Total[2]),
		pairedDelta("durable.first_partial_delta_ms_p50", l.First[3], l.First[2]),
		pairedDelta("wal.delta_nofsync_ms_p50", l.Total[4], l.Total[3]),
		pairedDelta("wal.delta_fsync_ms_p50", l.Total[5], l.Total[4]),
	)
}
