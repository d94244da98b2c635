// Package loader implements the DMS loading strategies of the paper (§4.3):
// direct disk access, remote file-server access, peer transfer out of other
// proxies' caches, and collective I/O — plus the adaptive, fitness-driven
// selector that picks a strategy per load based on predicted cost and
// observed reliability, so the system reacts to network delays and file
// server failures.
package loader

import (
	"errors"
	"fmt"
	"math"
	"sync"
	"time"

	"viracocha/internal/grid"
	"viracocha/internal/storage"
	"viracocha/internal/vclock"
)

// Source is one way of obtaining a block: a disk, a file server, a peer
// cache. EstimateCost predicts the uncontended load time for the block;
// Available reports whether this source can currently supply it at all.
type Source interface {
	Name() string
	Available(id grid.BlockID) bool
	EstimateCost(id grid.BlockID) time.Duration
	Load(id grid.BlockID) (*grid.Block, int64, error)
}

// DeviceSource adapts a storage.Device into a Source. BytesFor predicts the
// charged transfer size for cost estimation; when nil a fixed typical size
// is assumed.
type DeviceSource struct {
	Dev      *storage.Device
	BytesFor func(grid.BlockID) int64
}

// Name implements Source.
func (d *DeviceSource) Name() string { return d.Dev.Name }

// Available implements Source; devices can always be asked.
func (d *DeviceSource) Available(grid.BlockID) bool { return true }

// EstimateCost implements Source.
func (d *DeviceSource) EstimateCost(id grid.BlockID) time.Duration {
	var bytes int64 = 1 << 20
	if d.BytesFor != nil {
		bytes = d.BytesFor(id)
	}
	return d.Dev.EstimateCost(bytes)
}

// Load implements Source.
func (d *DeviceSource) Load(id grid.BlockID) (*grid.Block, int64, error) {
	return d.Dev.Load(id)
}

// LoadBackground implements BackgroundSource: when demand requests are
// queued on the device, the background load is refused with ErrBusy so
// prefetching cannot steal a saturated channel.
func (d *DeviceSource) LoadBackground(id grid.BlockID) (*grid.Block, int64, error) {
	if d.Dev.Saturated() {
		return nil, 0, ErrBusy
	}
	return d.Dev.LoadBackground(id)
}

// FuncSource builds a Source from closures; the DMS uses it to expose peer
// caches without an import cycle.
type FuncSource struct {
	SourceName string
	AvailFn    func(grid.BlockID) bool
	CostFn     func(grid.BlockID) time.Duration
	LoadFn     func(grid.BlockID) (*grid.Block, int64, error)
}

// Name implements Source.
func (f *FuncSource) Name() string { return f.SourceName }

// Available implements Source.
func (f *FuncSource) Available(id grid.BlockID) bool { return f.AvailFn(id) }

// EstimateCost implements Source.
func (f *FuncSource) EstimateCost(id grid.BlockID) time.Duration { return f.CostFn(id) }

// Load implements Source.
func (f *FuncSource) Load(id grid.BlockID) (*grid.Block, int64, error) { return f.LoadFn(id) }

// Selector is the centralized strategy decider that lives at the scheduler
// node. Every proxy load first asks the selector which source to use; that
// round trip is charged as DecideCost, reproducing the paper's caveat that
// adaptive selection adds communication to every load.
type Selector struct {
	Clock vclock.Clock
	// DecideCost is the communication cost of consulting the central
	// decision component, charged to the caller on every Decide.
	DecideCost time.Duration
	// FailurePenalty is the expected cost of a wasted attempt on an
	// unreliable source; fitness adds FailurePenalty·(1−reliability), so a
	// cheap-but-failing source loses to a dearer reliable one.
	FailurePenalty time.Duration

	mu      sync.Mutex
	sources []Source
	obs     map[string]*observation
}

type observation struct {
	reliability float64 // EWMA of success(1)/failure(0)
	loads       int64
	failures    int64
}

// NewSelector builds a selector over the given sources, most-preferred-first
// order being irrelevant: fitness decides.
func NewSelector(c vclock.Clock, decideCost time.Duration, sources ...Source) *Selector {
	s := &Selector{
		Clock:          c,
		DecideCost:     decideCost,
		FailurePenalty: 100 * time.Millisecond,
		obs:            map[string]*observation{},
	}
	for _, src := range sources {
		s.AddSource(src)
	}
	return s
}

// AddSource registers an additional source (e.g. a peer that joined).
func (s *Selector) AddSource(src Source) {
	s.mu.Lock()
	s.sources = append(s.sources, src)
	s.obs[src.Name()] = &observation{reliability: 1}
	s.mu.Unlock()
}

// maxRanked is how many sources a load ranks without allocating: base
// devices plus the peer source are a handful. More still rank, on the heap.
const maxRanked = 8

// rank appends to dst the sources able to supply id, ordered by ascending
// fitness: predicted cost plus the expected cost of failed attempts,
// FailurePenalty·(1−reliability). Equal fitness keeps registration order.
func (s *Selector) rank(id grid.BlockID, dst []Source) []Source {
	s.mu.Lock()
	defer s.mu.Unlock()
	var fitBuf [maxRanked]float64
	fits := fitBuf[:0]
	for _, src := range s.sources {
		if !src.Available(id) {
			continue
		}
		rel := s.obs[src.Name()].reliability
		fit := src.EstimateCost(id).Seconds() + s.FailurePenalty.Seconds()*(1-rel)
		// Stable insertion: after every candidate that is not fitter.
		i := len(fits)
		for i > 0 && fits[i-1] > fit {
			i--
		}
		fits = append(fits, 0)
		copy(fits[i+1:], fits[i:])
		fits[i] = fit
		dst = append(dst, nil)
		copy(dst[i+1:], dst[i:])
		dst[i] = src
	}
	return dst
}

// Decide charges the decision round trip and returns the preferred source
// for id. It is exported for observability; Load already calls it.
func (s *Selector) Decide(id grid.BlockID) (Source, error) {
	s.Clock.Sleep(s.DecideCost)
	var buf [maxRanked]Source
	ranked := s.rank(id, buf[:0])
	if len(ranked) == 0 {
		return nil, fmt.Errorf("loader: no source available for %v", id)
	}
	return ranked[0], nil
}

// BackgroundSource is implemented by sources that can serve a request at
// background (prefetch) priority; others are used at demand priority even
// for prefetches.
type BackgroundSource interface {
	LoadBackground(id grid.BlockID) (*grid.Block, int64, error)
}

// ErrBusy reports that a background load was shed because the source is
// saturated with demand traffic. It is not a reliability event.
var ErrBusy = errors.New("loader: source saturated, background load shed")

// Load picks the best source and loads the block at demand priority.
func (s *Selector) Load(id grid.BlockID) (*grid.Block, int64, error) {
	return s.load(id, false)
}

// LoadBackground is Load at prefetch priority: sources supporting priorities
// serve it behind queued demand requests.
func (s *Selector) LoadBackground(id grid.BlockID) (*grid.Block, int64, error) {
	return s.load(id, true)
}

// load picks the best source and loads the block, falling back to the next
// candidate on failure and updating reliability observations either way.
func (s *Selector) load(id grid.BlockID, background bool) (*grid.Block, int64, error) {
	s.Clock.Sleep(s.DecideCost)
	var buf [maxRanked]Source
	ranked := s.rank(id, buf[:0])
	if len(ranked) == 0 {
		return nil, 0, fmt.Errorf("loader: no source available for %v", id)
	}
	var errs []error
	for _, src := range ranked {
		var b *grid.Block
		var n int64
		var err error
		if bg, ok := src.(BackgroundSource); ok && background {
			b, n, err = bg.LoadBackground(id)
		} else {
			b, n, err = src.Load(id)
		}
		if errors.Is(err, ErrBusy) {
			// Shedding is not a failure: do not punish reliability, do not
			// fall back (the point is to leave the fleet alone).
			return nil, 0, ErrBusy
		}
		s.observe(src.Name(), err == nil)
		if err == nil {
			return b, n, nil
		}
		errs = append(errs, fmt.Errorf("%s: %w", src.Name(), err))
	}
	return nil, 0, fmt.Errorf("loader: all sources failed for %v: %w", id, errors.Join(errs...))
}

func (s *Selector) observe(name string, ok bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	o := s.obs[name]
	if o == nil {
		return
	}
	o.loads++
	v := 0.0
	if ok {
		v = 1
	} else {
		o.failures++
	}
	const alpha = 0.25
	o.reliability = (1-alpha)*o.reliability + alpha*v
}

// Reliability reports the current reliability estimate of a source.
func (s *Selector) Reliability(name string) float64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	if o, ok := s.obs[name]; ok {
		return o.reliability
	}
	return math.NaN()
}

// Collective implements collective I/O (§4.3): several proxies that need
// blocks of the same contiguous run issue one coordinated request; the
// device latency is paid once and a per-participant coordination cost is
// charged, reproducing the paper's finding that coordination often costs
// more than it saves unless runs are long.
type Collective struct {
	Dev   *storage.Device
	Clock vclock.Clock
	// CoordinationCost is charged once per participating block request.
	CoordinationCost time.Duration
}

// LoadRun loads a run of blocks in one coordinated operation and returns
// them in order: the caller is charged the coordination cost per block plus
// one device operation (single seek latency, summed transfer time). Whether
// this beats independent loads depends on how coordination cost compares to
// the saved per-request latencies — the trade-off of §4.3.
func (c *Collective) LoadRun(ids []grid.BlockID) ([]*grid.Block, int64, error) {
	if len(ids) == 0 {
		return nil, 0, nil
	}
	c.Clock.Sleep(time.Duration(len(ids)) * c.CoordinationCost)
	out, total, err := c.Dev.LoadRun(ids)
	if err != nil {
		return nil, total, fmt.Errorf("loader: collective run failed: %w", err)
	}
	return out, total, nil
}
