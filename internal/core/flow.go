package core

import (
	"sync"
	"time"

	"viracocha/internal/vclock"
)

// flowKey identifies one producer stream: one rank of one request. Credits
// are per (request, rank), matching the client's (rank, seq) dedupe key, so
// a restarted attempt inherits the same window.
type flowKey struct {
	reqID uint64
	rank  int
}

// streamCredit is the producer-side window state of one stream.
type streamCredit struct {
	outstanding int           // packets sent but not yet acknowledged
	stalled     bool          // producer currently parked without credit
	stallStart  time.Duration // clock time the current stall began
	// parked are the producers waiting on this stream now; idle keeps their
	// parking points for the next stall. One producer per stream is the rule,
	// so after the first stall a park allocates nothing.
	parked []*vclock.Parker
	idle   []*vclock.Parker
}

// park hands out a parking point, reusing an idle one, and lists it parked.
func (sc *streamCredit) park(c vclock.Clock) *vclock.Parker {
	var p *vclock.Parker
	if n := len(sc.idle); n > 0 {
		p = sc.idle[n-1]
		sc.idle = sc.idle[:n-1]
	} else {
		p = c.NewParker()
	}
	sc.parked = append(sc.parked, p)
	return p
}

// settle returns p, whose park ended, to the idle list — taking it off the
// parked list, where a deadline leaves it.
func (sc *streamCredit) settle(p *vclock.Parker) {
	for i, q := range sc.parked {
		if q == p {
			sc.parked = append(sc.parked[:i], sc.parked[i+1:]...)
			break
		}
	}
	sc.idle = append(sc.idle, p)
}

// unparkAll wakes every producer parked on the stream, disarming their
// slow-consumer deadlines.
func (sc *streamCredit) unparkAll() {
	for _, p := range sc.parked {
		p.Unpark()
	}
	sc.parked = sc.parked[:0]
}

// flowControl implements credit/ack flow control between the streaming
// workers and the client endpoints. Producers call Acquire before each
// partial send and park when the window is exhausted; consumers call Ack as
// they process each packet. Acks travel in-process for fabric clients and as
// "ack" frames from TCP clients. The accounting is deliberately forgiving:
// over-acking (duplicated packets, acks racing a request restart) floors at
// zero rather than corrupting the window.
type flowControl struct {
	clock vclock.Clock

	mu      sync.Mutex
	streams map[flowKey]*streamCredit
}

func newFlowControl(c vclock.Clock) *flowControl {
	return &flowControl{clock: c, streams: map[flowKey]*streamCredit{}}
}

// Acquire takes one send credit for (reqID, rank), parking the calling actor
// while the window is full. It returns ErrCancelled when cancelled() turns
// true while waiting, and ErrSlowConsumer when the stall outlasts deadline
// (deadline <= 0 parks indefinitely). window <= 0 disables flow control.
// The deadline is the parking point's own: an ack disarms it, and nothing
// outlives the park.
func (f *flowControl) Acquire(reqID uint64, rank, window int, deadline time.Duration, cancelled func() bool) error {
	if window <= 0 {
		return nil
	}
	key := flowKey{reqID: reqID, rank: rank}
	var p *vclock.Parker // this producer's parking point while it stalls
	for {
		if cancelled() {
			return ErrCancelled
		}
		f.mu.Lock()
		sc := f.streams[key]
		if sc == nil {
			sc = &streamCredit{}
			f.streams[key] = sc
		}
		if p != nil {
			sc.settle(p)
			p = nil
		}
		if sc.outstanding < window {
			sc.outstanding++
			sc.stalled = false
			f.mu.Unlock()
			return nil
		}
		now := f.clock.Now()
		if !sc.stalled {
			sc.stalled = true
			sc.stallStart = now
		}
		var until time.Duration
		if deadline > 0 {
			if until = sc.stallStart + deadline; until <= now {
				f.mu.Unlock()
				return ErrSlowConsumer
			}
		}
		p = sc.park(f.clock)
		f.mu.Unlock()
		p.Park(until)
	}
}

// Ack returns one credit to (reqID, rank) and wakes parked producers. An ack
// for an unknown or fully-credited stream is a no-op.
func (f *flowControl) Ack(reqID uint64, rank int) {
	f.mu.Lock()
	if sc := f.streams[flowKey{reqID: reqID, rank: rank}]; sc != nil {
		if sc.outstanding > 0 {
			sc.outstanding--
		}
		sc.stalled = false
		sc.unparkAll()
	}
	f.mu.Unlock()
}

// wake releases every producer parked on any stream of reqID without
// granting credit — used on cancellation so parked producers observe the
// cancel flag instead of sleeping through it.
func (f *flowControl) wake(reqID uint64) {
	f.mu.Lock()
	for key, sc := range f.streams {
		if key.reqID == reqID {
			sc.unparkAll()
		}
	}
	f.mu.Unlock()
}

// drop discards all window state of a finished request, releasing any
// producer still parked on it.
func (f *flowControl) drop(reqID uint64) {
	f.mu.Lock()
	for key, sc := range f.streams {
		if key.reqID == reqID {
			sc.unparkAll()
			delete(f.streams, key)
		}
	}
	f.mu.Unlock()
}
