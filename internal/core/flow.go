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
	gates       []*vclock.Gate
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
func (f *flowControl) Acquire(reqID uint64, rank, window int, deadline time.Duration, cancelled func() bool) error {
	if window <= 0 {
		return nil
	}
	key := flowKey{reqID: reqID, rank: rank}
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
		var remaining time.Duration
		if deadline > 0 {
			remaining = deadline - (now - sc.stallStart)
			if remaining <= 0 {
				f.mu.Unlock()
				return ErrSlowConsumer
			}
		}
		g := vclock.NewGate(f.clock)
		sc.gates = append(sc.gates, g)
		f.mu.Unlock()
		if deadline > 0 {
			// Deadline timer: wakes the parked producer so it can observe
			// the expired stall. Gate.Open is idempotent, so racing an ack
			// is harmless.
			f.clock.Go(func() {
				f.clock.Sleep(remaining)
				g.Open()
			})
		}
		g.Wait()
	}
}

// Ack returns one credit to (reqID, rank) and wakes parked producers. An ack
// for an unknown or fully-credited stream is a no-op.
func (f *flowControl) Ack(reqID uint64, rank int) {
	f.mu.Lock()
	sc := f.streams[flowKey{reqID: reqID, rank: rank}]
	var gates []*vclock.Gate
	if sc != nil {
		if sc.outstanding > 0 {
			sc.outstanding--
		}
		sc.stalled = false
		gates = sc.gates
		sc.gates = nil
	}
	f.mu.Unlock()
	for _, g := range gates {
		g.Open()
	}
}

// wake releases every producer parked on any stream of reqID without
// granting credit — used on cancellation so parked producers observe the
// cancel flag instead of sleeping through it.
func (f *flowControl) wake(reqID uint64) {
	f.mu.Lock()
	var gates []*vclock.Gate
	for key, sc := range f.streams {
		if key.reqID != reqID {
			continue
		}
		gates = append(gates, sc.gates...)
		sc.gates = nil
	}
	f.mu.Unlock()
	for _, g := range gates {
		g.Open()
	}
}

// drop discards all window state of a finished request, releasing any
// producer still parked on it.
func (f *flowControl) drop(reqID uint64) {
	f.mu.Lock()
	var gates []*vclock.Gate
	for key, sc := range f.streams {
		if key.reqID != reqID {
			continue
		}
		gates = append(gates, sc.gates...)
		delete(f.streams, key)
	}
	f.mu.Unlock()
	for _, g := range gates {
		g.Open()
	}
}
