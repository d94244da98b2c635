package core

import (
	"errors"
	"fmt"
	"time"
)

// OverloadConfig tunes the overload-protection layer: admission control at
// the scheduler, credit-based backpressure on the streaming path, and the
// DMS memory budget. The zero value disables all of it, which keeps
// dedicated single-client systems (benchmarks, the virtual-time experiment
// harness) byte-for-byte identical to earlier behaviour.
type OverloadConfig struct {
	// MaxQueue caps the scheduler's pending-request queue; a command
	// arriving while the queue is full is rejected with ErrOverloaded and a
	// retry-after hint. <= 0 means unlimited.
	MaxQueue int
	// SessionQuota caps the number of requests one client session may have
	// in flight (queued or running). <= 0 means unlimited.
	SessionQuota int
	// StreamWindow bounds the unacknowledged partial-result packets each
	// worker may have in flight per request (credit/ack flow control): a
	// producer that used up its window parks until the client acknowledges
	// a packet. <= 0 disables flow control. Requests can override with the
	// "stream_window" parameter.
	StreamWindow int
	// SlowConsumerAfter cancels a request whose producer has been parked
	// waiting for stream credit this long: a wedged client must not pin a
	// work group forever. <= 0 parks indefinitely (pure backpressure).
	SlowConsumerAfter time.Duration
	// MemBudget is the DMS byte budget across both cache tiers of all
	// proxies (0 = unlimited). The core scheduler does not read it; the
	// facade forwards it to the DMS configuration.
	MemBudget int64
}

// DefaultOverloadConfig returns the server defaults: 256 queued requests,
// 32 in-flight requests per session, a 32-packet stream window and a 5s
// slow-consumer deadline. The memory budget stays unlimited unless set.
func DefaultOverloadConfig() OverloadConfig {
	return OverloadConfig{
		MaxQueue:          256,
		SessionQuota:      32,
		StreamWindow:      32,
		SlowConsumerAfter: 5 * time.Second,
	}
}

// ErrOverloaded marks admission-control rejections: the scheduler refused to
// queue the request. Errors carrying it unwrap to *OverloadedError with the
// server's retry-after hint.
var ErrOverloaded = errors.New("core: overloaded")

// ErrSlowConsumer is the producer-side verdict on a request whose client
// stopped acknowledging streamed partials: past the SlowConsumerAfter
// deadline the request is cancelled instead of buffering unboundedly.
var ErrSlowConsumer = errors.New("core: slow consumer: stream credit not replenished")

// OverloadedError is a typed admission rejection. RetryAfter is the
// scheduler's hint, derived from the observed service rate and the current
// queue depth; clients should back off at least that long (with jitter)
// before resubmitting.
type OverloadedError struct {
	Reason     string
	RetryAfter time.Duration
}

// Error implements error.
func (e *OverloadedError) Error() string {
	return fmt.Sprintf("%s (retry after %v)", e.Reason, e.RetryAfter)
}

// Unwrap makes errors.Is(err, ErrOverloaded) true.
func (e *OverloadedError) Unwrap() error { return ErrOverloaded }

// ErrDraining marks admission rejections from a scheduler in drain mode: the
// server is shutting down gracefully, finishing in-flight requests but
// accepting no new ones. Errors carrying it unwrap to *DrainingError with a
// retry-after hint (sized for the server's expected bounce, not its queue).
var ErrDraining = errors.New("core: draining")

// DrainingError is a typed drain rejection, shaped like OverloadedError so
// retry loops can treat both uniformly.
type DrainingError struct {
	Reason     string
	RetryAfter time.Duration
}

// Error implements error.
func (e *DrainingError) Error() string {
	return fmt.Sprintf("%s (retry after %v)", e.Reason, e.RetryAfter)
}

// Unwrap makes errors.Is(err, ErrDraining) true.
func (e *DrainingError) Unwrap() error { return ErrDraining }

// OverloadCounters reports the scheduler's admission-control activity.
type OverloadCounters struct {
	RejectedQueue int64 // rejections because the pending queue was full
	RejectedQuota int64 // rejections because the session quota was exhausted
	RejectedDrain int64 // rejections because the scheduler was draining
}

// ringKeepCap is the backing-array size worth keeping across bursts; a
// drained ring that grew beyond it drops the array so burst memory returns
// to the collector.
const ringKeepCap = 64

// ringCompactAt bounds how far the head index may run ahead of the backing
// array before the live region is copied down.
const ringCompactAt = 64

// msgRing is the scheduler's pending-request queue: an index-advancing FIFO
// over one slice. The previous head-of-line `s.pending = s.pending[1:]`
// re-sliced away popped messages but kept their backing array (and payload
// references) alive for as long as the queue was non-empty — a sustained
// burst leaked the whole burst. The ring zeroes popped slots immediately,
// compacts when the dead prefix dominates, and frees an oversized backing
// array once drained. Each entry carries its arrival time, so a request's
// queue wait is measured from admission, not from dispatch.
type msgRing struct {
	items []queuedMsg
	head  int
}

// queuedMsg is one pending request and when it arrived at the scheduler.
type queuedMsg struct {
	*Request
	at time.Duration
}

func (r *msgRing) len() int { return len(r.items) - r.head }

func (r *msgRing) push(req *Request, at time.Duration) {
	r.items = append(r.items, queuedMsg{Request: req, at: at})
}

func (r *msgRing) peek() queuedMsg { return r.items[r.head] }

func (r *msgRing) pop() queuedMsg {
	m := r.items[r.head]
	r.items[r.head] = queuedMsg{} // release the request now
	r.head++
	switch {
	case r.head == len(r.items):
		if cap(r.items) > ringKeepCap {
			r.items = nil
		} else {
			r.items = r.items[:0]
		}
		r.head = 0
	case r.head >= ringCompactAt && r.head*2 >= len(r.items):
		n := copy(r.items, r.items[r.head:])
		clearTail := r.items[n:]
		for i := range clearTail {
			clearTail[i] = queuedMsg{}
		}
		r.items = r.items[:n]
		r.head = 0
	}
	return m
}

// filter drops every queued request for which keep is false and returns the
// dropped ones (in queue order); the session-disconnect purge uses it.
func (r *msgRing) filter(keep func(*Request) bool) []*Request {
	var dropped []*Request
	live := r.items[r.head:]
	out := r.items[:0]
	for _, q := range live {
		if keep(q.Request) {
			out = append(out, q)
		} else {
			dropped = append(dropped, q.Request)
		}
	}
	tail := r.items[len(out):]
	for i := range tail {
		tail[i] = queuedMsg{}
	}
	r.items = out
	r.head = 0
	return dropped
}
