// Package core is Viracocha's second layer (paper §3): the scheduler that
// accepts commands from the visualization client, the pool of workers that
// form work groups to execute them, the streaming machinery that ships
// partial results back before completion, and the timing probes behind the
// paper's compute/read/send breakdowns. Concrete extraction algorithms live
// one layer up (internal/commands) and plug in through the Command
// interface, so exchanging the top layer repurposes the framework.
package core

import (
	"fmt"
	"sync"
	"time"

	"viracocha/internal/comm"
	"viracocha/internal/dataset"
	"viracocha/internal/dms"
	"viracocha/internal/faults"
	"viracocha/internal/grid"
	"viracocha/internal/loader"
	"viracocha/internal/prefetch"
	"viracocha/internal/storage"
	"viracocha/internal/trace"
	"viracocha/internal/vclock"
)

// FTConfig tunes failure detection and recovery. The zero value disables
// heartbeating and monitoring entirely (no automatic failure recovery),
// which keeps fabrics that cannot fail free of heartbeat traffic.
type FTConfig struct {
	// HeartbeatEvery is the worker heartbeat interval and the failure
	// detector's check interval; <= 0 disables fault tolerance.
	HeartbeatEvery time.Duration
	// FailAfter is how long a worker may stay silent before it is declared
	// dead. It is clamped to at least 2*HeartbeatEvery.
	FailAfter time.Duration
}

// DefaultFTConfig returns the fault-tolerance defaults: 250ms heartbeats,
// death after 2s of silence. The recovery policy is each request's own
// ("retries", "redistribute"; see parseRequest).
func DefaultFTConfig() FTConfig {
	return FTConfig{
		HeartbeatEvery: 250 * time.Millisecond,
		FailAfter:      2 * time.Second,
	}
}

// Config assembles a runtime.
type Config struct {
	// Workers is the size of the worker pool.
	Workers int
	// Net models the scheduler/worker/client interconnect.
	NetLatency   time.Duration
	NetBandwidth float64
	// DMS configures the data management system.
	DMS dms.Config
	// Cost converts real work counts into charged virtual time.
	Cost CostModel
	// PrefetcherFor builds the system prefetcher for a worker's proxy; nil
	// means no system prefetching. It is called once per worker so policies
	// that learn (Markov) can be shared or per-node as the caller decides.
	PrefetcherFor func(node string) prefetch.Prefetcher
	// Memo turns cross-session result memoization on by default: identical
	// requests (canonical key over command + result-shaping parameters) are
	// served from a scheduler-side result cache, and identical concurrent
	// requests coalesce onto one extraction whose stream is multicast to
	// every subscriber. Requests override with the "memo" parameter. Off by
	// default so every request keeps its independent-extraction semantics.
	Memo bool
	// FT configures heartbeats and failure detection.
	FT FTConfig
	// Overload configures admission control and streaming backpressure; the
	// zero value disables both.
	Overload OverloadConfig
	// Faults optionally injects failures into the fabric, the workers and
	// the storage read path (nil = fault-free system).
	Faults *faults.Injector
	// WAL optionally receives control-plane durability events (dispatches,
	// journal spans and marks) for the write-ahead log; nil disables
	// control-plane logging.
	WAL WALSink
}

// DefaultConfig returns a runtime configuration resembling the paper's
// environment at laptop scale.
func DefaultConfig(workers int) Config {
	return Config{
		Workers:      workers,
		NetLatency:   50 * time.Microsecond,
		NetBandwidth: 1e9,
		DMS:          dms.DefaultConfig(),
		Cost:         DefaultCostModel(),
		FT:           DefaultFTConfig(),
	}
}

// ConfigFor is DefaultConfig with the prices the clock kind calls for: they
// advance the virtual clock; under the real clock the work takes its own time
// and compute, reads and the fabric are free. The one thing the fabric price
// did there besides modelling — park a CPU-bound rank once per streamed
// partial, which is when the bridge, the socket and a co-located client run —
// is done by the viewer's acks: a rank with a full stream window parks until
// one comes back (OverloadConfig.StreamWindow, DESIGN.md §1).
func ConfigFor(c vclock.Clock, workers int) Config {
	cfg := DefaultConfig(workers)
	if isReal(c) {
		cfg.Cost = ZeroCostModel()
		cfg.DMS.Prices = dms.Prices{}
		cfg.NetLatency, cfg.NetBandwidth = 0, 0
	}
	return cfg
}

// isReal reports whether c is the wall clock.
func isReal(c vclock.Clock) bool {
	_, ok := c.(*vclock.Real)
	return ok
}

// Runtime owns the clock, the fabric, the DMS, the scheduler and the worker
// pool of one Viracocha instance.
type Runtime struct {
	Clock    vclock.Clock
	Net      *comm.Network
	DMS      *dms.Server
	Cost     CostModel
	Sched    *Scheduler
	Workers  []*Worker
	Datasets map[string]*dataset.Desc
	// Trace records fault-tolerance events (injections, deaths, retries,
	// swallowed send errors) for tests and operators.
	Trace *trace.Log

	cfg    Config
	faults *faults.Injector
	flow   *flowControl

	// stopMu serializes worker revival against the scheduler's final
	// shutdown broadcast: once stopping is set no new incarnation may spawn,
	// or its actor loop would outlive the shutdown and hang Clock.Wait.
	stopMu   sync.Mutex
	stopping bool

	mu        sync.Mutex
	registry  map[string]Command
	devices   map[string]*storage.Device
	dynamic   map[uint64]*dynQueue
	cancelled map[uint64]bool
	reqSeq    uint64
	clientSeq uint64
}

// NewRuntime assembles (but does not start) a runtime on the given clock.
// Storage devices and data sets are registered afterwards, then Start spawns
// the scheduler and worker actors.
func NewRuntime(c vclock.Clock, cfg Config) *Runtime {
	if cfg.Workers < 1 {
		cfg.Workers = 1
	}
	rt := &Runtime{
		Clock:     c,
		Net:       comm.NewNetwork(c, cfg.NetLatency, cfg.NetBandwidth),
		Cost:      cfg.Cost,
		Datasets:  map[string]*dataset.Desc{},
		Trace:     trace.NewLog(4096),
		cfg:       cfg,
		faults:    cfg.Faults,
		flow:      newFlowControl(c),
		registry:  map[string]Command{},
		devices:   map[string]*storage.Device{},
		dynamic:   map[uint64]*dynQueue{},
		cancelled: map[uint64]bool{},
	}
	if cfg.Faults != nil {
		// Guarded so a nil *faults.Injector never becomes a non-nil
		// comm.FaultInjector interface value.
		rt.Net.Faults = cfg.Faults
	}
	rt.DMS = dms.NewServer(c, cfg.DMS)
	rt.Sched = newScheduler(rt)
	for i := 0; i < cfg.Workers; i++ {
		node := fmt.Sprintf("w%d", i)
		var pf prefetch.Prefetcher
		if cfg.PrefetcherFor != nil {
			pf = cfg.PrefetcherFor(node)
		}
		rt.Workers = append(rt.Workers, newWorker(rt, node, pf))
	}
	return rt
}

// RegisterDataset makes a data set available to commands.
func (rt *Runtime) RegisterDataset(d *dataset.Desc) { rt.Datasets[d.Name] = d }

// RegisterDevice adds a storage device as a loading source for all worker
// proxies (call before Start; devices registered later are not picked up by
// existing selectors).
func (rt *Runtime) RegisterDevice(dev *storage.Device, bytesFor func(grid.BlockID) int64) {
	if rt.faults != nil && dev.ReadFault == nil {
		dev.ReadFault = rt.faults.OnRead
	}
	if rt.faults != nil && dev.CorruptFault == nil {
		dev.CorruptFault = rt.faults.OnCorrupt
	}
	rt.mu.Lock()
	rt.devices[dev.Name] = dev
	rt.mu.Unlock()
	rt.DMS.AddSource(&loader.DeviceSource{Dev: dev, BytesFor: bytesFor})
}

// Device returns a registered device by name (nil when unknown); Simple*
// commands use it to bypass the DMS.
func (rt *Runtime) Device(name string) *storage.Device {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	return rt.devices[name]
}

// AnyDevice returns an arbitrary registered device (the common single-disk
// case) or nil.
func (rt *Runtime) AnyDevice() *storage.Device {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	for _, d := range rt.devices {
		return d
	}
	return nil
}

// markCancelled flags a request; running commands observe it via
// Ctx.Cancelled at their next poll point. Producers parked on stream credit
// are woken so cancellation propagates through the backpressure path too.
func (rt *Runtime) markCancelled(reqID uint64) {
	rt.mu.Lock()
	rt.cancelled[reqID] = true
	rt.mu.Unlock()
	rt.flow.wake(reqID)
}

// AckStream returns one stream credit for (reqID, rank): the consumer has
// processed one partial packet. In-process clients ack automatically from
// Collect; the TCP bridge calls it for "ack" frames from remote clients.
func (rt *Runtime) AckStream(reqID uint64, rank int) {
	rt.flow.Ack(reqID, rank)
}

// isCancelled reports whether the request was cancelled.
func (rt *Runtime) isCancelled(reqID uint64) bool {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	return rt.cancelled[reqID]
}

// clearCancelled drops the flag once the request has fully finished.
func (rt *Runtime) clearCancelled(reqID uint64) {
	rt.mu.Lock()
	delete(rt.cancelled, reqID)
	rt.mu.Unlock()
}

// SetPrefetcherFactory replaces the system-prefetcher factory for all
// workers. It must be called before Start (proxies are built at Start).
func (rt *Runtime) SetPrefetcherFactory(f func(node string) prefetch.Prefetcher) {
	for _, w := range rt.Workers {
		w.pf = f(w.node)
	}
}

// Register adds a command implementation to the layer-3 registry.
func (rt *Runtime) Register(cmd Command) {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	if _, dup := rt.registry[cmd.Name()]; dup {
		panic("core: duplicate command " + cmd.Name())
	}
	rt.registry[cmd.Name()] = cmd
}

// Lookup resolves a command by name.
func (rt *Runtime) Lookup(name string) (Command, bool) {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	c, ok := rt.registry[name]
	return c, ok
}

// NextReqID issues a fresh request identifier.
func (rt *Runtime) NextReqID() uint64 {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	rt.reqSeq++
	return rt.reqSeq
}

// NextClientID issues a fresh client endpoint number.
func (rt *Runtime) NextClientID() uint64 {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	rt.clientSeq++
	return rt.clientSeq
}

// Start spawns the scheduler and worker actors — plus, when a fault plan
// schedules worker crashes, recoveries or flapping, one timer actor per
// planned event stream that fail-stops or reboots the worker at the planned
// virtual times. The runtime runs until Shutdown.
func (rt *Runtime) Start() {
	for _, w := range rt.Workers {
		w.start()
		if at, doomed := rt.faults.CrashTime(w.node); doomed {
			w := w
			rt.Clock.Go(func() {
				rt.Clock.Sleep(at)
				if !rt.isStopping() && !w.stopped.Load() {
					w.crash("fault plan")
				}
			})
		}
		if at, planned := rt.faults.RecoverTime(w.node); planned {
			w := w
			rt.Clock.Go(func() {
				rt.Clock.Sleep(at)
				rt.reviveWorker(w)
			})
		}
		if period, planned := rt.faults.FlapPeriod(w.node); planned {
			w := w
			rt.Clock.Go(func() {
				for {
					rt.Clock.Sleep(period)
					if rt.isStopping() || w.stopped.Load() {
						return
					}
					w.crash("fault plan: flap")
					rt.Clock.Sleep(period)
					if !rt.reviveWorker(w) {
						return
					}
				}
			})
		}
	}
	rt.Sched.start()
}

// isStopping reports whether the scheduler has begun its final shutdown
// broadcast; no new worker incarnation may spawn past this point.
func (rt *Runtime) isStopping() bool {
	rt.stopMu.Lock()
	defer rt.stopMu.Unlock()
	return rt.stopping
}

// noteStopping latches the stopping flag. The scheduler sets it before
// broadcasting shutdown to the worker set, so every incarnation that exists
// afterwards is guaranteed to receive the broadcast.
func (rt *Runtime) noteStopping() {
	rt.stopMu.Lock()
	rt.stopping = true
	rt.stopMu.Unlock()
}

// reviveWorker reboots a dead worker as a fresh incarnation (see
// Worker.respawn) and reports whether it did. Nothing reboots a worker
// unasked — a recover:/flap: fault rule or Roll is the request; without one,
// dead is forever. Refused when the worker is not actually dead, or when the
// runtime is already shutting down (a late incarnation would outlive the
// scheduler's shutdown broadcast and hang the clock).
func (rt *Runtime) reviveWorker(w *Worker) bool {
	rt.stopMu.Lock()
	defer rt.stopMu.Unlock()
	if rt.stopping || !w.dead.Load() || w.stopped.Load() {
		return false
	}
	w.respawn()
	return true
}

// Roll restarts the worker pool one node at a time: cordon the rank (no new
// work), wait for its in-flight execution to drain and its journal marks to
// flush (the wdone path), kill it, reboot it, and wait for the rejoin before
// moving on — a rolling restart with all requests completing normally.
// timeout bounds each node's drain+rejoin. Must run in a context where fabric
// sends are legal (an actor, or any goroutine under the real clock).
func (rt *Runtime) Roll(timeout time.Duration) error {
	poll := rt.cfg.FT.HeartbeatEvery
	if poll <= 0 {
		poll = 10 * time.Millisecond
	}
	ctl := rt.Net.Endpoint("control.roll")
	for _, w := range rt.Workers {
		if w.Dead() {
			continue // already down; its own rejoin path owns it
		}
		deadline := rt.Clock.Now() + timeout
		ctl.Send("scheduler", comm.Message{Kind: "cordon", Body: &Report{Worker: w.node}})
		for rt.Sched.workerState(w.node) != wsCordoned {
			if rt.Clock.Now() >= deadline {
				return fmt.Errorf("core: roll: %s did not drain within %v", w.node, timeout)
			}
			rt.Clock.Sleep(poll)
		}
		ctl.Send("scheduler", comm.Message{Kind: "decommission", Body: &Report{Worker: w.node}})
		for !w.Dead() {
			if rt.Clock.Now() >= deadline {
				return fmt.Errorf("core: roll: %s did not stop within %v", w.node, timeout)
			}
			rt.Clock.Sleep(poll)
		}
		if !rt.reviveWorker(w) {
			return fmt.Errorf("core: roll: could not reboot %s", w.node)
		}
		for {
			st := rt.Sched.workerState(w.node)
			if st == wsFree || st == wsBusy {
				break
			}
			if rt.Clock.Now() >= deadline {
				return fmt.Errorf("core: roll: %s did not rejoin within %v", w.node, timeout)
			}
			rt.Clock.Sleep(poll)
		}
	}
	return nil
}

// killWorker fences a worker the failure detector has declared dead: even
// if the node was merely slow or partitioned, it must not act on the system
// again (fail-stop enforcement).
func (rt *Runtime) killWorker(node string) {
	for _, w := range rt.Workers {
		if w.node == node {
			w.crash("fenced by scheduler")
			return
		}
	}
}

// hasDynWork reports whether the request has claimed dynamic work: items
// claimed by a dead worker die with it, so recovery must restart the whole
// request rather than a single rank.
func (rt *Runtime) hasDynWork(reqID uint64) bool {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	return rt.dynamic[reqID] != nil
}

// Shutdown asks the scheduler to stop; it forwards the shutdown to all
// workers. Must be called from an actor (e.g. the client actor) so the
// message send has a time context.
func (rt *Runtime) Shutdown() {
	rt.Net.Endpoint("control").Send("scheduler", comm.Message{Kind: "shutdown"})
}

// DrainScheduler puts the scheduler into drain mode: in-flight requests run
// to completion, new commands are rejected with ErrDraining. Unlike
// Shutdown, the scheduler stays alive (absorbing worker reports and serving
// stats) until Shutdown follows. Must be called from a context where a
// fabric send is legal (an actor, or any goroutine under the real clock).
func (rt *Runtime) DrainScheduler() {
	rt.Net.Endpoint("control.drain").Send("scheduler", comm.Message{Kind: "drain"})
}

// FaultInjector exposes the configured fault injector (nil for a fault-free
// system); the TCP bridge consults it for connection-level fault rules.
func (rt *Runtime) FaultInjector() *faults.Injector { return rt.faults }
