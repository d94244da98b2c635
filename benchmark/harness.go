package main

import (
	"fmt"
	"net"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"sync"
	"syscall"
	"time"

	"viracocha"
	"viracocha/internal/dataset"
	"viracocha/internal/storage"
)

// dataSet is a data set this invocation wrote to disk, the way
// cmd/viracocha-gen does, with the descriptor that registers it.
type dataSet struct {
	Desc  *dataset.Desc
	Dir   string
	Bytes int64
}

// writeDataSet generates the workload's time steps under root.
func writeDataSet(root string, w *workload) (*dataSet, error) {
	d, err := dataset.ByName(w.Dataset)
	if err != nil {
		return nil, err
	}
	d = d.WithScale(w.Scale)
	d.Steps = w.Steps // register only what is on disk, so OBL never runs past it
	ds := &dataSet{Desc: d, Dir: filepath.Join(root, fmt.Sprintf("%s-s%d", w.Dataset, w.Scale))}
	be := &storage.DirBackend{Root: ds.Dir}
	for s := 0; s < d.Steps; s++ {
		for b := 0; b < d.Blocks; b++ {
			blk := d.Generate(s, b)
			if err := be.Put(blk); err != nil {
				return nil, fmt.Errorf("writing %v: %w", blk.ID, err)
			}
			ds.Bytes += blk.SizeBytes()
		}
	}
	// Flush the files now: left dirty, their write-back would compete with
	// the write-ahead log's fsyncs in the middle of the measured phase.
	syscall.Sync()
	return ds, nil
}

// serverConfig is what distinguishes one served system from another: the
// workload's options plus the durability rung the ladder asks for.
type serverConfig struct {
	W      *workload
	Data   *dataSet
	WALDir string // "" = no write-ahead log
	Fsync  string // WAL policy: "always" or "off"
}

// server is an in-process viracocha.System under the real clock, served on a
// loopback listener.
type server struct {
	Sys  *viracocha.System
	Born time.Time // the instant viracocha.New returned: zero of RequestStats times
	Addr string

	ln     net.Listener
	served chan struct{}
}

// options are the viracocha-server defaults at 2 workers, except that storage
// is not slowed artificially: only real file reads cost time.
func (c serverConfig) options() viracocha.Options {
	ov := viracocha.DefaultOverloadConfig()
	ov.MemBudget = c.W.MemBudget
	return viracocha.Options{
		Workers:    2,
		Prefetcher: "obl",
		Memo:       c.W.Memo,
		Overload:   &ov,
		WALDir:     c.WALDir,
		WALFsync:   c.Fsync,
	}
}

func startServer(c serverConfig) (*server, error) {
	sys := viracocha.New(c.options())
	s := &server{Sys: sys, Born: time.Now(), served: make(chan struct{})}
	if err := sys.AddDatasetDir(c.Data.Desc, c.Data.Dir); err != nil {
		return nil, err
	}
	if c.WALDir != "" {
		if err := sys.RecoverWAL(); err != nil {
			return nil, fmt.Errorf("recovering WAL: %w", err)
		}
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	s.ln, s.Addr = ln, ln.Addr().String()
	go func() {
		defer close(s.served)
		_ = sys.Serve(ln) // returns the listener's close error at stop
	}()
	return s, nil
}

// stop shuts the system down: the listener closes, the log is checkpointed,
// then Kill tears every actor down. It does not wait on Clock.Wait: each time
// a producer parked on stream credit the server started a 5 s slow-consumer
// timer that nothing cancels, and those outlive the requests. Clients must be
// closed first.
func (s *server) stop() error {
	err := s.ln.Close()
	<-s.served
	if werr := s.Sys.CloseWAL(); err == nil {
		err = werr
	}
	s.Sys.Kill()
	return err
}

// sample is what the client saw of one request.
type sample struct {
	Index    int // position in the request list
	Client   int
	Sent     time.Time
	First    time.Duration // send → first onPartial callback
	Total    time.Duration // send → merged mesh returned
	Partials int
	Tris     int
	Area     float64
	Err      error
	Marks    []time.Duration // traced runs: arrival of every partial, from Sent
}

// dial opens one closed-loop connection as the workload prescribes.
// OverloadRetries stays 0: a rejection is a failure, never a retry.
func dial(addr string, durable bool) (*viracocha.RemoteClient, error) {
	rc, err := viracocha.Dial(addr)
	if err != nil {
		return nil, err
	}
	rc.Resume = durable
	return rc, nil
}

// runOne sends one request and records what came back. keep, when non-nil,
// receives every partial mesh (traced runs capture a few requests' partials
// for the direct layer timings).
func runOne(rc *viracocha.RemoteClient, r request, traced bool, keep func(*viracocha.Mesh)) sample {
	var s sample
	s.Sent = time.Now()
	m, err := rc.Run(r.Command, r.Params, func(_ int, part *viracocha.Mesh) {
		at := time.Since(s.Sent)
		if s.Partials == 0 {
			s.First = at
		}
		s.Partials++
		if traced {
			s.Marks = append(s.Marks, at)
		}
		if keep != nil {
			keep(part)
		}
	})
	s.Total = time.Since(s.Sent)
	if s.Partials == 0 {
		s.First = s.Total
	}
	if err != nil {
		s.Err = err
		return s
	}
	// Touching the geometry is the client's share of the work, as a renderer
	// would; it runs between requests and is the same on every commit.
	s.Tris, s.Area = m.NumTriangles(), m.Area()
	return s
}

// hook tells drive, for request i of a client, whether to record every
// partial's arrival and who is handed the partial meshes. Each client calls it
// from its own goroutine.
type hook func(client, i int) (traced bool, keep func(*viracocha.Mesh))

// drive runs reqs[from:to] closed-loop on every client at once and returns the
// samples of all clients in order of sending. Several clients send the identical list
// in lockstep — request i leaves on every connection at the same instant, the
// next one when every client has its result — as front-ends sharing one view
// do; left to drift, two racing clients make the first-partial time a matter
// of their phase. A nil hook traces nothing.
func drive(clients []*viracocha.RemoteClient, reqs []request, from, to int, h hook) []sample {
	out := make([][]sample, len(clients))
	var wg sync.WaitGroup
	bar := newBarrier(len(clients))
	for c, rc := range clients {
		wg.Add(1)
		go func(c int, rc *viracocha.RemoteClient) {
			defer wg.Done()
			for i := from; i < to; i++ {
				bar.wait()
				var traced bool
				var keep func(*viracocha.Mesh)
				if h != nil {
					traced, keep = h(c, i)
				}
				s := runOne(rc, reqs[i], traced, keep)
				s.Index, s.Client = i, c
				out[c] = append(out[c], s)
			}
		}(c, rc)
	}
	wg.Wait()
	var all []sample
	for _, s := range out {
		all = append(all, s...)
	}
	sort.SliceStable(all, func(i, j int) bool { return all[i].Sent.Before(all[j].Sent) })
	return all
}

// session is a served system with its clients connected.
type session struct {
	Srv     *server
	Clients []*viracocha.RemoteClient
}

func openSession(c serverConfig, clients int, durable bool) (*session, error) {
	srv, err := startServer(c)
	if err != nil {
		return nil, err
	}
	se := &session{Srv: srv}
	for i := 0; i < clients; i++ {
		rc, err := dial(srv.Addr, durable)
		if err != nil {
			se.close()
			return nil, err
		}
		se.Clients = append(se.Clients, rc)
	}
	return se, nil
}

func (se *session) close() error {
	for _, rc := range se.Clients {
		rc.Close()
	}
	return se.Srv.stop()
}

// setupReps is how often a run sets the system up; setup_s is the median.
const setupReps = 3

// endToEnd is the untraced run of one workload: everything the end-to-end
// metrics are computed from.
type endToEnd struct {
	Setup    []float64 // seconds, one per set-up
	Warmed   []sample  // the warm-up prefix of the measured system
	Samples  []sample  // the measured phase, in order of sending
	Mem0     runtime.MemStats
	Mem1     runtime.MemStats
	LiveHeap uint64
}

// measure runs one workload end to end with tracing off. A set-up is: new
// System, data set registered, WAL recovered, listener up, clients dialled,
// warm-up prefix done. The first set-up carries the measured phase, so no
// earlier system's garbage or lingering goroutines weigh on its heap; the
// others are torn down as soon as they are warm and only add to setup_s.
func measure(w *workload, data *dataSet, reqs []request, warm int, scratch string) (*endToEnd, error) {
	e := &endToEnd{}
	for rep := 0; rep < setupReps; rep++ {
		cfg := serverConfig{W: w, Data: data}
		if w.Durable {
			cfg.WALDir, cfg.Fsync = filepath.Join(scratch, fmt.Sprintf("wal-%d", rep)), "always"
		}
		t0 := time.Now()
		se, err := openSession(cfg, w.Clients, w.Durable)
		if err != nil {
			return nil, err
		}
		warmed := drive(se.Clients, reqs, 0, warm, nil)
		e.Setup = append(e.Setup, time.Since(t0).Seconds())
		if rep == 0 {
			e.Warmed = warmed
			runtime.GC()
			runtime.ReadMemStats(&e.Mem0)
			e.Samples = drive(se.Clients, reqs, warm, len(reqs), nil)
			runtime.ReadMemStats(&e.Mem1)
			// Sessions are still open: this is what a long-lived server keeps.
			runtime.GC()
			var ms runtime.MemStats
			runtime.ReadMemStats(&ms)
			e.LiveHeap = ms.HeapAlloc
		}
		if err := se.close(); err != nil {
			return nil, err
		}
		if cfg.WALDir != "" {
			if err := os.RemoveAll(cfg.WALDir); err != nil {
				return nil, err
			}
		}
	}
	return e, nil
}

// barrier releases its n parties together, again and again.
type barrier struct {
	mu      sync.Mutex
	n, here int
	gate    chan struct{}
}

func newBarrier(n int) *barrier { return &barrier{n: n, gate: make(chan struct{})} }

func (b *barrier) wait() {
	b.mu.Lock()
	b.here++
	if b.here == b.n {
		b.here = 0
		close(b.gate)
		b.gate = make(chan struct{})
		b.mu.Unlock()
		return
	}
	gate := b.gate
	b.mu.Unlock()
	<-gate
}
