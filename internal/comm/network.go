package comm

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"viracocha/internal/vclock"
)

// SendFault is the fault injector's verdict for one message in transit:
// drop it after charging the link, deliver it twice, and/or delay it beyond
// the modelled link cost. The zero value is a clean delivery.
type SendFault struct {
	Drop       bool
	Duplicate  bool
	ExtraDelay time.Duration
}

// FaultInjector decides the fate of each message as it enters a link. It is
// consulted once per Send; implementations must be safe for concurrent use
// and deterministic for reproducible experiments (see internal/faults).
type FaultInjector interface {
	OnSend(from, to string, m Message) SendFault
}

// ErrDown is returned by Send when the destination endpoint exists but its
// inbox has been closed — the node crashed or shut down. The message is
// lost; senders that care (heartbeat loops) can distinguish it from the
// unknown-endpoint error.
var ErrDown = errors.New("comm: endpoint down")

// Network is the in-process message-passing fabric between scheduler and
// workers (the paper's MPI layer). Every send charges the sender the link
// latency plus transfer time for the message's wire size, so gather and
// streaming overheads appear in the experiment timings. A fabric with no link
// price (the real clock's) hands messages straight over.
type Network struct {
	Clock     vclock.Clock
	Latency   time.Duration
	Bandwidth float64 // bytes/s; <=0 means infinite
	// Faults, when non-nil, is consulted on every Send (fault injection;
	// nil means a perfectly reliable fabric).
	Faults FaultInjector

	mu    sync.Mutex
	nodes map[string]*Endpoint
	stats NetworkStats
}

// NetworkStats accumulates fabric-wide traffic counters.
type NetworkStats struct {
	Messages int64
	Bytes    int64
	// Priced counts the messages whose sender slept a link price for them:
	// all of them on a priced fabric, none on a free one.
	Priced int64
	// Dropped counts messages lost to injected link faults or dead
	// destination nodes; Duplicated counts injected duplicate deliveries.
	Dropped    int64
	Duplicated int64
	// Endpoints is how many endpoints the fabric holds when the snapshot is
	// taken: a gauge, not a counter.
	Endpoints int
}

// NewNetwork builds a fabric on the given clock with a uniform link model.
func NewNetwork(c vclock.Clock, latency time.Duration, bandwidth float64) *Network {
	return &Network{Clock: c, Latency: latency, Bandwidth: bandwidth, nodes: map[string]*Endpoint{}}
}

// Endpoint returns (creating on first use) the endpoint of the named node.
func (n *Network) Endpoint(name string) *Endpoint {
	n.mu.Lock()
	defer n.mu.Unlock()
	if e, ok := n.nodes[name]; ok {
		return e
	}
	e := &Endpoint{
		name:   name,
		net:    n,
		inbox:  vclock.NewQueue[Message](n.Clock),
		inLink: vclock.NewSemaphore(n.Clock, 1),
	}
	n.nodes[name] = e
	return e
}

// Replace installs a fresh endpoint for the named node, superseding any
// existing one — the restarted node's new NIC. Senders resolve destinations
// by name on every Send, so they transparently reach the replacement; actors
// still holding the old endpoint keep reading its (closed, drained) inbox
// and sending through it, which charges them normally but delivers to the
// new incarnation — exactly what a rebooted host looks like from outside.
func (n *Network) Replace(name string) *Endpoint {
	n.mu.Lock()
	defer n.mu.Unlock()
	e := &Endpoint{
		name:   name,
		net:    n,
		inbox:  vclock.NewQueue[Message](n.Clock),
		inLink: vclock.NewSemaphore(n.Clock, 1),
	}
	n.nodes[name] = e
	return e
}

// Stats returns a snapshot of the traffic counters.
func (n *Network) Stats() NetworkStats {
	n.mu.Lock()
	defer n.mu.Unlock()
	st := n.stats
	st.Endpoints = len(n.nodes)
	return st
}

// Endpoint is one node's mailbox on the fabric. Each endpoint has a single
// inbound link: concurrent senders to the same node serialize their
// transfers, which is what makes "many work nodes literally firing data at
// the visualization system" (§5.2) a real cost as work groups grow.
type Endpoint struct {
	name   string
	net    *Network
	inbox  *vclock.Queue[Message]
	inLink *vclock.Semaphore
}

// Name reports the node name.
func (e *Endpoint) Name() string { return e.name }

// Send delivers m to the named endpoint, charging the sending actor the
// link cost. Sending to an unknown endpoint is an error (endpoints are
// created eagerly at startup); sending to a closed endpoint charges the
// link, silently discards the message and returns ErrDown — the fabric
// cannot tell a crashed node from a slow one any faster than that.
func (e *Endpoint) Send(to string, m Message) error {
	size := m.WireSize()
	price := e.net.Latency
	if e.net.Bandwidth > 0 {
		price += time.Duration(float64(size) / e.net.Bandwidth * float64(time.Second))
	}
	e.net.mu.Lock()
	dst, ok := e.net.nodes[to]
	faults := e.net.Faults
	if ok {
		e.net.stats.Messages++
		e.net.stats.Bytes += size
		if price > 0 {
			e.net.stats.Priced++
		}
	}
	e.net.mu.Unlock()
	if !ok {
		return fmt.Errorf("comm: unknown endpoint %q", to)
	}
	var f SendFault
	if faults != nil {
		f = faults.OnSend(e.name, to, m)
	}
	if wait := price + f.ExtraDelay; wait > 0 {
		dst.inLink.Acquire()
		e.net.Clock.Sleep(wait)
		dst.inLink.Release()
	}
	if f.Drop {
		e.net.countDrop()
		return nil // lost in transit: the sender cannot know
	}
	if !dst.inbox.PushOpen(m) {
		e.net.countDrop()
		return ErrDown
	}
	if f.Duplicate {
		if dst.inbox.PushOpen(m) {
			e.net.mu.Lock()
			e.net.stats.Duplicated++
			e.net.mu.Unlock()
		}
	}
	return nil
}

func (n *Network) countDrop() {
	n.mu.Lock()
	n.stats.Dropped++
	n.mu.Unlock()
}

// Recv blocks the calling actor until a message arrives; ok is false after
// Close once the inbox is drained.
func (e *Endpoint) Recv() (Message, bool) {
	return e.inbox.Pop()
}

// TryRecv returns a message already in the inbox without blocking; ok is
// false when there is none.
func (e *Endpoint) TryRecv() (Message, bool) {
	return e.inbox.TryPop()
}

// Close shuts the inbox; pending messages can still be drained. The name
// stays on the fabric, so a send to it returns ErrDown: a crashed node.
func (e *Endpoint) Close() { e.inbox.Close() }

// Leave closes the inbox and takes the name off the fabric, for endpoints
// that live for one request: a later send to it is an unknown-endpoint error.
func (e *Endpoint) Leave() {
	e.inbox.Close()
	e.net.mu.Lock()
	if e.net.nodes[e.name] == e {
		delete(e.net.nodes, e.name)
	}
	e.net.mu.Unlock()
}
