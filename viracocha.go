// Package viracocha is the public API of the Viracocha reproduction: a
// parallel CFD post-processing framework that decouples feature extraction
// from visualization (Gerndt et al., SC 2004). A System hosts the scheduler,
// a worker pool and the data management system; clients submit named
// commands ("iso.dataman", "vortex.streamed", "pathlines.dataman", …) and
// receive streamed partial results and a final merged geometry.
//
// The runtime can run under the real clock (interactive use, the TCP
// server) or under a deterministic virtual clock that reproduces the
// paper's timing experiments on any host; see internal/vclock.
package viracocha

import (
	"fmt"
	"sync"
	"time"

	"viracocha/internal/commands"
	"viracocha/internal/core"
	"viracocha/internal/dataset"
	"viracocha/internal/dms"
	"viracocha/internal/faults"
	"viracocha/internal/mesh"
	"viracocha/internal/prefetch"
	"viracocha/internal/storage"
	"viracocha/internal/trace"
	"viracocha/internal/vclock"
	"viracocha/internal/wal"
)

// Re-exported result and geometry types.
type (
	// Mesh is the triangle geometry produced by extraction commands.
	Mesh = mesh.Mesh
	// RunResult is everything a client observed for one request.
	RunResult = core.RunResult
	// RequestStats is the server-side timing record of one request.
	RequestStats = core.RequestStats
	// Command is the layer-3 algorithm interface for extending the system.
	Command = core.Command
	// DatasetDesc describes a registered multi-block data set.
	DatasetDesc = dataset.Desc
	// FTConfig tunes heartbeats and failure detection.
	FTConfig = core.FTConfig
	// OverloadConfig tunes admission control, streaming backpressure and the
	// DMS memory budget.
	OverloadConfig = core.OverloadConfig
	// OverloadedError is a typed admission rejection carrying the server's
	// retry-after hint.
	OverloadedError = core.OverloadedError
	// DrainingError is a typed drain-mode rejection carrying the server's
	// retry-after hint: the server is gracefully shutting down.
	DrainingError = core.DrainingError
	// BudgetStats is a snapshot of the DMS memory budget's accounting.
	BudgetStats = dms.BudgetStats
	// MemoStats aggregates the result-memoization counters (Options.Memo).
	MemoStats = core.MemoStats
	// WALStats counts the control-plane WAL's records, write syscalls, fsyncs
	// and checkpoints (Options.WALDir).
	WALStats = wal.Stats
	// OverloadCounters is the scheduler's admission-control activity record.
	OverloadCounters = core.OverloadCounters
	// FaultPlan is a seeded, deterministic fault-injection scenario.
	FaultPlan = faults.Plan
	// TraceEvent is one recorded fault-tolerance event.
	TraceEvent = trace.Event
)

// ErrOverloaded marks admission-control rejections; errors.Is-match it after
// a Run to distinguish "try again later" from a real failure.
var ErrOverloaded = core.ErrOverloaded

// ErrSlowConsumer marks requests cancelled because their client stopped
// acknowledging streamed partials.
var ErrSlowConsumer = core.ErrSlowConsumer

// ErrDraining marks requests bounced because the server is draining for a
// graceful shutdown; the typed DrainingError carries a retry-after hint.
var ErrDraining = core.ErrDraining

// DefaultFTConfig returns the fault-tolerance defaults (250ms heartbeats, 2s
// failure window) for callers that want to tweak a single knob via
// Options.FT. The recovery policy is each request's: "retries" (default 2)
// and "redistribute" (default off).
func DefaultFTConfig() FTConfig { return core.DefaultFTConfig() }

// DefaultOverloadConfig returns the overload-protection defaults (256 queued
// requests, 32 per session, a 2-packet stream window, 5s slow-consumer
// deadline, unlimited memory) for callers that tweak one knob via
// Options.Overload.
func DefaultOverloadConfig() OverloadConfig { return core.DefaultOverloadConfig() }

// Options configures a System.
type Options struct {
	// Workers is the worker pool size (default 4).
	Workers int
	// VirtualTime runs the system under the deterministic virtual clock
	// instead of the wall clock, charging the figures' prices
	// (core.Paper()); the wall clock charges none. TCP serving requires wall
	// time.
	VirtualTime bool
	// Prefetcher selects the system prefetch policy for worker proxies:
	// "none" (default), "obl", "onmiss", "markov".
	Prefetcher string
	// Memo turns cross-session result memoization on: identical requests
	// (canonicalized, so "0.5" and "0.50" collide) are served from a
	// content-addressed result cache, and concurrent identical requests
	// coalesce onto one extraction whose stream is multicast to every
	// subscriber. Off by default so every request keeps its
	// independent-extraction semantics. Requests override per call with the
	// "memo" parameter.
	Memo bool
	// FT overrides the fault-tolerance defaults (heartbeat interval,
	// failure window); nil keeps DefaultFTConfig.
	FT *FTConfig
	// Overload enables admission control, streaming backpressure and the
	// DMS memory budget; nil keeps all of it disabled (the zero
	// OverloadConfig) — which is what in-process virtual-time runs want and
	// what nothing that serves TCP runs: see New.
	Overload *OverloadConfig
	// Faults injects a deterministic failure scenario — per-link message
	// drop/duplication/delay, worker crashes at given virtual times,
	// storage read errors, paced reads. Nil means a fault-free system.
	Faults *FaultPlan
	// SessionLease is how long a durable TCP session survives without a
	// connection before it is purged, counted from the moment it lost the
	// connection; zero means the 30s default. Only meaningful for served
	// systems.
	SessionLease time.Duration
	// DrainTimeout bounds System.Drain (and the remote drain trigger): how
	// long in-flight requests get to finish before the drain gives up; zero
	// means a 10s default.
	DrainTimeout time.Duration
	// WALDir enables the control-plane write-ahead log in the given
	// directory: durable-session admissions, leases, stream logs and
	// dispatch journals are logged so a server restarts via RecoverWAL with
	// byte-identical client resume — after a hard kill, or after a graceful
	// Drain + CloseWAL (the only way sessions survive a bounce). Memo
	// results are not logged. Empty disables the log.
	WALDir string
	// WALFsync selects the log's fsync policy: "always" (default, no
	// acknowledged record ever lost), "interval" (bounded loss window) or
	// "off" (the OS decides).
	WALFsync string
}

// System is one Viracocha instance: scheduler, workers, DMS and data sets.
type System struct {
	Clock   vclock.Clock
	Runtime *core.Runtime

	opts    Options
	started bool
	wal     *walSink // control-plane write-ahead log (nil without WALDir)

	bmu sync.Mutex
	br  *sessionBridge // durable TCP session bridge (lazily built)
}

// New assembles a system with the paper's command set registered. Register
// data sets, then call Start.
//
// A system that will Serve should be given Overload: viracocha-server, the
// end-to-end benchmark and examples/streamingiso all pass
// DefaultOverloadConfig() (with the server's -mem-budget on top), so the
// admission queue, session quota, stream window and slow-consumer deadline
// are part of the path every measured or documented TCP request takes. The
// nil default leaves them off, and with the stream window goes the only thing
// that makes a CPU-bound streaming rank yield its core to the bridge and the
// viewer (DESIGN.md §1).
func New(opts Options) *System {
	if opts.Workers < 1 {
		opts.Workers = 4
	}
	var clk vclock.Clock
	if opts.VirtualTime {
		clk = vclock.NewVirtual()
	} else {
		clk = vclock.NewReal()
	}
	cfg := core.ConfigFor(clk, opts.Workers)
	cfg.Memo = opts.Memo
	if opts.FT != nil {
		cfg.FT = *opts.FT
	}
	if opts.Overload != nil {
		cfg.Overload = *opts.Overload
		cfg.DMS.MemBudget = opts.Overload.MemBudget
	}
	cfg.Faults = faults.New(opts.Faults)
	var sink *walSink
	if opts.WALDir != "" {
		sink = newWALSink(opts.WALDir)
		cfg.WAL = sink
	}
	rt := core.NewRuntime(clk, cfg)
	commands.RegisterAll(rt)
	if sink != nil {
		sink.warn = func(format string, args ...any) {
			rt.Trace.Eventf(rt.Clock.Now(), "wal", format, args...)
		}
	}
	return &System{Clock: clk, Runtime: rt, opts: opts, wal: sink}
}

// AddDataset registers one of the built-in synthetic data sets ("engine",
// "propfan", "tiny") at the given resolution scale, backed by an on-demand
// generating store behind the configured device model.
func (s *System) AddDataset(name string, scale int) (*DatasetDesc, error) {
	if s.started {
		return nil, fmt.Errorf("viracocha: AddDataset after Start")
	}
	d, err := dataset.ByName(name)
	if err != nil {
		return nil, err
	}
	d = d.WithScale(scale)
	s.registerPrefetcher(d)
	s.Runtime.RegisterDataset(d)
	dev := storage.NewDevice("store:"+d.Name, &storage.GenBackend{Desc: d}, s.Clock,
		s.opts.Faults.ReadPace(d.Name), 0, 2)
	s.Runtime.RegisterDevice(dev, nil)
	return d, nil
}

// AddDatasetDir registers a data set whose blocks were written to a
// directory tree by EncodeBlock files (see cmd/viracocha-gen); desc supplies
// the structural metadata.
func (s *System) AddDatasetDir(desc *DatasetDesc, dir string) error {
	if s.started {
		return fmt.Errorf("viracocha: AddDatasetDir after Start")
	}
	s.registerPrefetcher(desc)
	s.Runtime.RegisterDataset(desc)
	dev := storage.NewDevice("dir:"+desc.Name, &storage.DirBackend{Root: dir}, s.Clock,
		s.opts.Faults.ReadPace(desc.Name), 0, 2)
	s.Runtime.RegisterDevice(dev, nil)
	return nil
}

// registerPrefetcher wires the chosen system prefetch policy with the data
// set's canonical block order.
func (s *System) registerPrefetcher(d *dataset.Desc) {
	switch s.opts.Prefetcher {
	case "", "none":
		return
	}
	order := prefetch.FileOrder(d.Steps, d.Blocks)
	factory := func(string) prefetch.Prefetcher {
		switch s.opts.Prefetcher {
		case "obl":
			return prefetch.NewOBL(order)
		case "onmiss":
			return prefetch.NewOnMiss(order)
		case "markov":
			m := prefetch.NewMarkov(1, prefetch.NewOBL(order))
			m.Depth = 4
			m.MinConfidence = 0.9
			return m
		}
		return prefetch.None{}
	}
	s.Runtime.SetPrefetcherFactory(factory)
}

// Register adds a custom command (layer 3 extension point).
func (s *System) Register(cmd Command) { s.Runtime.Register(cmd) }

// Start spawns the scheduler and worker actors.
func (s *System) Start() {
	s.started = true
	s.Runtime.Start()
}

// Session runs fn as the client actor and shuts the system down when fn
// returns; it blocks until every actor has exited. It is the standard way
// to drive an in-process system. Under VirtualTime the clock advances only
// while Session is blocked here, so fn starts at virtual time zero even though
// Start's heartbeat loops are already sleeping.
func (s *System) Session(fn func(c *Client)) {
	if !s.started {
		s.Start()
	}
	s.Clock.Go(func() {
		cl := &Client{inner: core.NewClient(s.Runtime), sys: s}
		fn(cl)
		s.Runtime.Shutdown()
	})
	s.Clock.Wait()
}

// Client submits commands from within a Session.
type Client struct {
	inner *core.Client
	sys   *System
}

// Run executes a command and waits for the merged result.
func (c *Client) Run(command string, params map[string]string) (*RunResult, error) {
	return c.inner.Run(command, params)
}

// Submit starts a command without waiting; Collect retrieves it.
func (c *Client) Submit(command string, params map[string]string) (uint64, error) {
	return c.inner.Submit(command, params)
}

// Collect waits for a submitted command.
func (c *Client) Collect(reqID uint64) (*RunResult, error) {
	return c.inner.Collect(reqID)
}

// Cancel asks the scheduler to stop a running request (the paper's §5
// "discard immediately" interaction); Collect still returns, with a
// cancellation error.
func (c *Client) Cancel(reqID uint64) error { return c.inner.Cancel(reqID) }

// Stats returns the server-side record of a finished request. Call it after
// the Session (or after the request's Run returned and a subsequent request
// completed) to be sure the workers' reports have drained.
func (c *Client) Stats(reqID uint64) (RequestStats, bool) {
	return c.sys.Runtime.Sched.Stats(reqID)
}

// Stats looks a finished request up after the session ended.
func (s *System) Stats(reqID uint64) (RequestStats, bool) {
	return s.Runtime.Sched.Stats(reqID)
}

// Trace exposes the runtime's fault-tolerance event log: injections, worker
// deaths, retries, degradations and swallowed send errors.
func (s *System) Trace() []TraceEvent { return s.Runtime.Trace.Events() }

// DMSBudget snapshots the DMS memory budget's accounting (all zero when no
// budget was configured).
func (s *System) DMSBudget() BudgetStats { return s.Runtime.DMS.Budget().Stats() }

// OverloadStats reports the scheduler's admission-control counters.
func (s *System) OverloadStats() core.OverloadCounters { return s.Runtime.Sched.OverloadStats() }

// MemoStats reports the result-memoization counters (all zero unless
// Options.Memo or a request's "memo" parameter turned the path on).
func (s *System) MemoStats() MemoStats { return s.Runtime.Sched.MemoStats() }

// WALStats reports the write-ahead log's counters since RecoverWAL opened it
// (all zero on a WAL-less system): records per write is what the log
// writer's batching buys, records per fsync what sharing an fsync buys under
// fsync always.
func (s *System) WALStats() WALStats { return s.wal.stats() }

// AllStats returns the retained finished requests' server-side records (the
// scheduler keeps the newest 8192), ordered by request ID — client-facing records and internal memo-producer records
// alike. Call it after the session (or a Drain) so the reports have drained.
func (s *System) AllStats() []RequestStats { return s.Runtime.Sched.AllStats() }

// Params builds a parameter map from alternating key/value strings:
// Params("dataset", "engine", "iso", "500").
func Params(kv ...string) map[string]string {
	m := map[string]string{}
	for i := 0; i+1 < len(kv); i += 2 {
		m[kv[i]] = kv[i+1]
	}
	return m
}
