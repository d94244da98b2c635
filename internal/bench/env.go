// Package bench regenerates every table and figure of the paper's
// evaluation (§7) on the simulated test bed: synthetic Engine/Propfan data
// sets, a file-server storage model charging paper-scale byte counts, and
// the virtual clock standing in for the 24-processor SUN Fire 6800. Each
// experiment prints the same rows/series the paper plots; absolute numbers
// are calibrated approximations, the comparisons and crossovers are the
// reproduction targets.
package bench

import (
	"fmt"
	"time"

	"viracocha/internal/commands"
	"viracocha/internal/core"
	"viracocha/internal/dataset"
	"viracocha/internal/grid"
	"viracocha/internal/prefetch"
	"viracocha/internal/storage"
	"viracocha/internal/vclock"
)

// EnvConfig parameterizes one measurement environment.
type EnvConfig struct {
	DS      *dataset.Desc
	Workers int
	// Prefetcher selects the proxies' system prefetch policy: "none",
	// "obl", "onmiss", "markov".
	Prefetcher string
	// DisablePeer turns the cooperative peer-transfer source off.
	DisablePeer bool
}

// The network file server every environment reads from, calibrated to the
// paper: 8 ms per request, 1.2 MB/s against paper-scale block bytes, and two
// channels, because I/O does not scale with worker count.
const (
	fsLatency   = 8 * time.Millisecond
	fsBandwidth = 1.2e6
	fsChannels  = 2
)

// Env is one fresh measurement environment: its own virtual clock, runtime,
// storage device and caches.
type Env struct {
	V   *vclock.Virtual
	RT  *core.Runtime
	DS  *dataset.Desc
	Dev *storage.Device
}

// PaperCost returns the cost model calibrated to land runtimes in the
// paper's regimes for the scaled synthetic grids (see EXPERIMENTS.md for
// the calibration reasoning).
func PaperCost() core.CostModel {
	return core.CostModel{
		PerIsoCell:        140 * time.Microsecond,
		PerTriangle:       40 * time.Microsecond,
		PerLambda2Node:    400 * time.Microsecond,
		PerGradNode:       133 * time.Microsecond,
		PerBSPCell:        185 * time.Microsecond,
		PerVelocityEval:   2900 * time.Microsecond,
		PerIndexNode:      12 * time.Microsecond,
		LazyLambda2Factor: 1.08,
		PerMergeTriangle:  4 * time.Microsecond,
	}
}

// NewEnv builds and starts a fresh environment.
func NewEnv(cfg EnvConfig) *Env {
	v := vclock.NewVirtual()
	rc := core.DefaultConfig(cfg.Workers)
	rc.Cost = PaperCost()
	// The message fabric: latency of a 2004 interconnect, with bandwidth
	// set so result transfers cost what the paper's (much larger) extracted
	// geometry cost on its network — Figure 15 puts SimpleIso's send share
	// at ~1% and IsoDataMan's at ~10% of a far shorter total.
	rc.NetLatency = 200 * time.Microsecond
	rc.NetBandwidth = 1.2e6
	rc.DMS.DisablePeer = cfg.DisablePeer
	rc.PrefetcherFor = prefetcherFactory(cfg)
	rt := core.NewRuntime(v, rc)
	rt.RegisterDataset(cfg.DS)

	dev := storage.NewDevice("fileserver", &storage.GenBackend{Desc: cfg.DS}, v, fsLatency, fsBandwidth, fsChannels)
	dev.ChargeBytes = func(grid.BlockID) int64 { return cfg.DS.PaperBlockBytes }
	rt.RegisterDevice(dev, func(grid.BlockID) int64 { return cfg.DS.PaperBlockBytes })
	commands.RegisterAll(rt)
	rt.Start()
	return &Env{V: v, RT: rt, DS: cfg.DS, Dev: dev}
}

func prefetcherFactory(cfg EnvConfig) func(string) prefetch.Prefetcher {
	order := prefetch.FileOrder(cfg.DS.Steps, cfg.DS.Blocks)
	switch cfg.Prefetcher {
	case "", "none":
		return nil
	case "obl":
		return func(string) prefetch.Prefetcher { return prefetch.NewOBL(order) }
	case "onmiss":
		return func(string) prefetch.Prefetcher { return prefetch.NewOnMiss(order) }
	case "markov":
		return func(string) prefetch.Prefetcher {
			m := prefetch.NewMarkov(1, prefetch.NewOBL(order))
			m.Depth = 6 // walk the learned chain ahead to keep channels busy
			m.MinConfidence = 0.9
			return m
		}
	}
	panic("bench: unknown prefetcher " + cfg.Prefetcher)
}

// Measurement is one command execution's observables.
type Measurement struct {
	Stats   core.RequestStats
	Result  *core.RunResult
	Latency time.Duration
}

// Session runs fn as the client actor and shuts the runtime down afterwards;
// it must be called exactly once per Env.
func (e *Env) Session(fn func(cl *core.Client)) {
	e.V.Go(func() {
		cl := core.NewClient(e.RT)
		fn(cl)
		e.RT.Shutdown()
	})
	e.V.Wait()
}

// RunOne builds a fresh environment, optionally primes the caches with
// `prime` executions of the same command, runs it once measured, and
// returns the measurement. This is the standard shape of the paper's warm
// measurements ("one single call of the command at hand was issued in
// advance", §7).
func RunOne(cfg EnvConfig, cmd string, params map[string]string, prime int) Measurement {
	e := NewEnv(cfg)
	var m Measurement
	var reqID uint64
	e.Session(func(cl *core.Client) {
		for i := 0; i < prime; i++ {
			if _, err := cl.Run(cmd, params); err != nil {
				panic(fmt.Sprintf("bench: prime run of %s failed: %v", cmd, err))
			}
		}
		res, err := cl.Run(cmd, params)
		if err != nil {
			panic(fmt.Sprintf("bench: %s failed: %v", cmd, err))
		}
		m.Result = res
		m.Latency = res.Latency()
		reqID = res.ReqID
	})
	st, ok := e.RT.Sched.Stats(reqID)
	if !ok {
		panic("bench: stats missing after session")
	}
	m.Stats = st
	return m
}

// Params builds a parameter map from alternating key/value strings.
func Params(kv ...string) map[string]string {
	m := map[string]string{}
	for i := 0; i+1 < len(kv); i += 2 {
		m[kv[i]] = kv[i+1]
	}
	return m
}

// Secs renders a duration as seconds with paper-plot precision.
func Secs(d time.Duration) string { return fmt.Sprintf("%.1f", d.Seconds()) }
