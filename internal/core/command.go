package core

import (
	"errors"
	"fmt"
	"time"

	"viracocha/internal/comm"
	"viracocha/internal/dataset"
	"viracocha/internal/dms"
	"viracocha/internal/grid"
	"viracocha/internal/mesh"
)

// Command is the layer-3 interface: a post-processing algorithm executed by
// every member of a work group. Implementations receive a Ctx describing
// their rank and giving access to data loading, streaming and the cost
// model. Run returns the worker's partial result mesh (which may be empty
// for commands that streamed everything already) or an error.
type Command interface {
	Name() string
	Run(ctx *Ctx) (*mesh.Mesh, error)
}

// Probes accumulates the per-worker time breakdown of Figure 15.
type Probes struct {
	Compute time.Duration
	Read    time.Duration
	Send    time.Duration
}

// Ctx is the execution context of one worker within one work group.
type Ctx struct {
	rt     *Runtime
	worker *Worker
	// ep, epoch and proxy pin this execution to the worker incarnation that
	// started it: a fenced incarnation's unwind keeps sending through its own
	// (dead) NIC and reading its own (dropped) proxy, never the respawn's.
	ep    *comm.Endpoint
	epoch int
	proxy *dms.Proxy

	// Req is the originating request, parsed at admission; command
	// parameters are read through Param, IntParam and FloatParam.
	Req *Request
	// Rank and GroupSize identify this worker within the group; rank 0 is
	// the master that gathers and merges.
	Rank, GroupSize int
	// Group lists the node names of the work group, Group[0] the master.
	Group []string
	// Dataset is the data set named by the request.
	Dataset *dataset.Desc
	// Model prices work counts into charged time.
	Model Model

	probes   Probes
	seq      int
	streams  int
	attempt  int         // recovery attempt this execution belongs to
	uncached int         // demand loads served without a cache hit (degraded path)
	blockSeq map[int]int // per-block packet counter for block-tagged streaming
	// span, when hasSpan, is the work span the scheduler re-issued to this
	// rank (block-granular failover, crash recovery).
	span    []int
	hasSpan bool
}

// ErrCancelled is returned by commands that observed a client cancellation
// (paper §5: meaningless extraction processes are "discarded immediately in
// order to continue the investigation at another point").
var ErrCancelled = errors.New("core: request cancelled by client")

// Cancelled reports whether the client cancelled this request. Commands
// poll it at natural boundaries (per block, per batch) and return
// ErrCancelled to stop early.
func (c *Ctx) Cancelled() bool { return c.rt.isCancelled(c.Req.ReqID) }

// Interrupted is the per-item poll for commands: it returns ErrCancelled
// when the client cancelled this request, nil otherwise.
func (c *Ctx) Interrupted() error {
	if c.Cancelled() {
		return ErrCancelled
	}
	return nil
}

// Journaling reports whether this request runs in block-granular recovery
// mode: streaming commands declare explicit work spans and report per-block
// completion watermarks, and their partials are block-tagged.
func (c *Ctx) Journaling() bool { return c.Req.Journal }

// Charge prices d of computation to this worker (virtual time) and adds it
// to the compute probe. Like every Ctx method that parks the actor, it is a
// crash point: a worker that fail-stopped mid-charge never returns.
func (c *Ctx) Charge(d time.Duration) {
	if d > 0 {
		c.rt.Clock.Sleep(d)
		c.worker.checkCrashed()
		c.probes.Compute += d
	}
}

// Load fetches a block through the DMS, accounting the elapsed time as read
// time. It is a cancellation point: a cancelled request stops loading rather
// than pulling more data through a possibly budget-constrained DMS.
func (c *Ctx) Load(id grid.BlockID) (*grid.Block, error) {
	if c.Cancelled() {
		return nil, ErrCancelled
	}
	before := c.proxy.UncachedLoads()
	start := c.rt.Clock.Now()
	b, err := c.proxy.Get(id)
	c.probes.Read += c.rt.Clock.Now() - start
	c.worker.checkCrashed()
	c.uncached += int(c.proxy.UncachedLoads() - before)
	if err == nil && c.Cancelled() {
		return nil, ErrCancelled
	}
	return b, err
}

// LoadCoarse fetches a block at a multi-resolution level through the DMS.
func (c *Ctx) LoadCoarse(id grid.BlockID, level int) (*grid.Block, error) {
	if c.Cancelled() {
		return nil, ErrCancelled
	}
	start := c.rt.Clock.Now()
	b, err := c.proxy.GetCoarse(id, level)
	c.probes.Read += c.rt.Clock.Now() - start
	c.worker.checkCrashed()
	if err == nil && c.Cancelled() {
		return nil, ErrCancelled
	}
	return b, err
}

// LoadRaw fetches a block directly from the first registered device,
// bypassing the DMS entirely — the data path of the paper's Simple*
// baseline commands.
func (c *Ctx) LoadRaw(id grid.BlockID) (*grid.Block, error) {
	if c.Cancelled() {
		return nil, ErrCancelled
	}
	dev := c.rt.AnyDevice()
	if dev == nil {
		return nil, fmt.Errorf("core: no storage device registered")
	}
	start := c.rt.Clock.Now()
	b, _, err := dev.Load(id)
	c.probes.Read += c.rt.Clock.Now() - start
	c.worker.checkCrashed()
	if err == nil && c.Cancelled() {
		return nil, ErrCancelled
	}
	return b, err
}

// Prefetch issues an explicit (code) prefetch through the DMS.
func (c *Ctx) Prefetch(id grid.BlockID) { c.proxy.Prefetch(id) }

// CachesTrees reports whether this run serves the viewer's BSP trees from the
// DMS (BSPTree) — the real clock's path, bit-identical to rebuilding and
// faster on resident data. Under the virtual clock every run rebuilds and
// prices its trees, as the paper's algorithm does. Under budget pressure the
// DMS refuses a tree rather than evict a demand block for it (dms.Cache).
func (c *Ctx) CachesTrees() bool { return isReal(c.rt.Clock) }

// BSPTree returns the view-dependent BSP tree for (b, field), cached in the
// DMS as a derived entity: the tree depends only on the block's geometry and
// field, not on the viewpoint or iso value, so a user orbiting the camera or
// dragging the slider reuses it across requests. Construction is priced on a
// miss; a cache hit costs nothing extra (traversal work is priced per cell
// by the extraction scan).
func (c *Ctx) BSPTree(b *grid.Block, field string) *grid.BSPTree {
	name := dms.BSPItem(b.ID, field)
	if e, ok := c.proxy.GetDerived(name); ok {
		if t, ok := e.(*grid.BSPTree); ok {
			return t
		}
	}
	t := grid.BuildBSP(b, field)
	c.Charge(c.Model.BSPCost(b.NumCells()))
	// The cached tree must not pin the (evictable) block it was built from;
	// traversal only reads the prebuilt node ranges.
	t.ReleaseBlock()
	c.proxy.PutDerived(name, t)
	return t
}

// StreamPartial ships a partial result mesh directly to the visualization
// client (the streaming path), accounting send time. The packet carries the
// sender's rank, per-rank sequence number and attempt, so the client can
// discard the duplicates a rank retry re-streams.
func (c *Ctx) StreamPartial(m *mesh.Mesh) error {
	return c.streamPartial(m, comm.Opt[int]{}, comm.Opt[int]{})
}

// StreamBlock ships one block's partial result with a (block, bseq) tag, the
// block-granular streaming path of journal mode: the client dedupes by tag,
// so a redistribution re-streaming an already-delivered block never
// double-counts it, and assembles tagged packets in canonical block order for
// a byte-stable merged mesh. Outside journal mode it degrades to a plain
// StreamPartial.
func (c *Ctx) StreamBlock(item int, m *mesh.Mesh) error {
	if !c.Journaling() {
		return c.StreamPartial(m)
	}
	if c.blockSeq == nil {
		c.blockSeq = map[int]int{}
	}
	bseq := c.blockSeq[item]
	c.blockSeq[item] = bseq + 1
	return c.streamPartial(m, comm.Some(item), comm.Some(bseq))
}

func (c *Ctx) streamPartial(m *mesh.Mesh, block, bseq comm.Opt[int]) error {
	c.worker.checkCrashed()
	// Backpressure: take a stream credit before sending. A producer whose
	// window is exhausted parks here until the client acks a packet; one
	// that stays parked past the slow-consumer deadline cancels the whole
	// request instead of buffering unboundedly.
	if window := c.Req.StreamWindow; window > 0 {
		err := c.rt.flow.Acquire(c.Req.ReqID, c.Rank, window,
			c.rt.cfg.Overload.SlowConsumerAfter,
			c.Cancelled)
		c.worker.checkCrashed()
		if errors.Is(err, ErrSlowConsumer) {
			c.rt.Trace.Eventf(c.rt.Clock.Now(), "worker:"+c.worker.node,
				"req %d rank %d: slow consumer: no stream credit within %v, cancelling",
				c.Req.ReqID, c.Rank, c.rt.cfg.Overload.SlowConsumerAfter)
			c.rt.markCancelled(c.Req.ReqID)
			return err
		}
		if err != nil {
			return err
		}
	}
	c.seq++
	c.streams++
	msg := comm.Message{
		Kind:    "partial",
		Command: c.Req.Command,
		ReqID:   c.Req.ReqID,
		Seq:     c.seq,
		Worker:  comm.Some(c.worker.node),
		Rank:    comm.Some(c.Rank),
		Attempt: comm.Some(c.attempt),
		Block:   block,
		BSeq:    bseq,
		Payload: m.EncodeBinary(),
	}
	start := c.rt.Clock.Now()
	err := c.ep.Send(c.ClientEndpoint(), msg)
	c.probes.Send += c.rt.Clock.Now() - start
	c.worker.checkCrashed()
	return err
}

// ClientEndpoint is the fabric name of the client that issued this request.
func (c *Ctx) ClientEndpoint() string { return c.Req.Client }

// AssignedBlocks splits the block list of one time step round-robin across
// the group: block b goes to rank b mod GroupSize. order, when non-nil,
// permutes the blocks first (e.g. front-to-back for view-dependent
// extraction).
func (c *Ctx) AssignedBlocks(order []int) []int {
	return c.roundRobin(c.Dataset.Blocks, order)
}

// roundRobin is this rank's share of total items dealt round-robin across
// the group: item i (or order[i], when order permutes them) goes to rank
// i mod GroupSize.
func (c *Ctx) roundRobin(total int, order []int) []int {
	var out []int
	for i := c.Rank; i < total; i += c.GroupSize {
		b := i
		if order != nil && i < len(order) {
			b = order[i]
		}
		out = append(out, b)
	}
	return out
}

// AssignedSlice splits an arbitrary work list (e.g. particle seeds)
// contiguously across the group, the static distribution whose imbalance
// the paper's Figure 13 exhibits.
func AssignedSlice(total, rank, groupSize int) (lo, hi int) {
	lo = total * rank / groupSize
	hi = total * (rank + 1) / groupSize
	return
}

// SpanItems resolves this execution's work span over total items: an
// explicit span (set by the scheduler when re-issuing a dead rank's
// unfinished blocks) wins; otherwise the usual round-robin share. order, when
// non-nil, permutes the items first and also orders an explicit span (e.g.
// front-to-back). In journal mode the span is declared to the scheduler's
// progress journal, so a failure recomputes only the items not yet marked
// with BlockDone. Only streaming commands take spans: a gathered command's
// completed items live in its worker until the final merge, so its rank is
// re-run whole (AssignedBlocks, AssignedSlice).
func (c *Ctx) SpanItems(total int, order []int) []int {
	items := c.spanItems(total, order)
	c.declareSpan(items)
	return items
}

// SpanBlocks is SpanItems over the data set's blocks of one time step.
func (c *Ctx) SpanBlocks(order []int) []int {
	return c.SpanItems(c.Dataset.Blocks, order)
}

func (c *Ctx) spanItems(total int, order []int) []int {
	if c.hasSpan {
		span := c.span
		if order == nil {
			return span
		}
		// Re-issued spans honor the caller's traversal order (e.g.
		// front-to-back): walk the permutation and keep the span members.
		in := make(map[int]bool, len(span))
		for _, it := range span {
			in[it] = true
		}
		out := make([]int, 0, len(span))
		for _, it := range order {
			if in[it] {
				out = append(out, it)
				delete(in, it)
			}
		}
		for _, it := range span {
			if in[it] {
				out = append(out, it)
			}
		}
		return out
	}
	return c.roundRobin(total, order)
}

// declareSpan reports the resolved span to the scheduler's progress journal
// and arms the worker's heartbeat watermark piggyback. A no-op outside
// journal mode, so span-aware commands cost nothing when recovery is
// rank-granular.
func (c *Ctx) declareSpan(items []int) {
	if !c.Journaling() {
		return
	}
	c.worker.checkCrashed()
	c.worker.beginJournal(c.epoch, c.Req.ReqID, c.Rank, c.attempt)
	msg := comm.Message{Kind: "wspan", Command: c.Req.Command, ReqID: c.Req.ReqID, Body: &Report{
		Worker: c.worker.node, Epoch: c.epoch, Rank: c.Rank, Attempt: c.attempt,
		Span: items,
	}}
	if err := c.ep.Send("scheduler", msg); err != nil {
		c.rt.Trace.Eventf(c.rt.Clock.Now(), "worker:"+c.worker.node,
			"req %d: span declaration send failed: %v", c.Req.ReqID, err)
	}
}

// BlockDone records one completed span item in the scheduler's progress
// journal (an eager watermark message; heartbeats re-carry the cumulative
// set in case it is lost). Streaming commands call it after the item's
// partials went out. A no-op outside journal mode.
func (c *Ctx) BlockDone(item int) {
	if !c.Journaling() {
		return
	}
	c.worker.checkCrashed()
	c.worker.markDone(c.epoch, item)
	// BFrames is the block's tagged-packet count: crash recovery replays a
	// marked block from retained frames only when all of them survived in
	// the WAL, else it recomputes the block.
	msg := comm.Message{Kind: "wmark", Command: c.Req.Command, ReqID: c.Req.ReqID, Body: &Report{
		Worker: c.worker.node, Epoch: c.epoch, Rank: c.Rank, Attempt: c.attempt,
		Item: item, BFrames: c.blockSeq[item],
	}}
	if err := c.ep.Send("scheduler", msg); err != nil {
		c.rt.Trace.Eventf(c.rt.Clock.Now(), "worker:"+c.worker.node,
			"req %d: watermark send failed: %v", c.Req.ReqID, err)
	}
}

// Param reads a string parameter from the request.
func (c *Ctx) Param(key, def string) string {
	if v, ok := c.Req.msg.Params[key]; ok {
		return v
	}
	return def
}

// FloatParam reads a float parameter from the request.
func (c *Ctx) FloatParam(key string, def float64) float64 { return c.Req.msg.FloatParam(key, def) }

// IntParam reads an integer parameter from the request.
func (c *Ctx) IntParam(key string, def int) int { return c.Req.msg.IntParam(key, def) }

// StepParam returns the requested time step, clamped to the data set.
func (c *Ctx) StepParam() int {
	s := c.Req.Step
	if s < 0 {
		s = 0
	}
	if s >= c.Dataset.Steps {
		s = c.Dataset.Steps - 1
	}
	return s
}
