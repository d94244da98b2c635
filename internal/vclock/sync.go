package vclock

import "sync"

// Queue is an unbounded FIFO whose Pop parks the calling actor through the
// owning clock, making it safe to use for cross-actor hand-off under a
// virtual clock. It is the message-queue primitive the communication layer
// is built on.
type Queue[T any] struct {
	c       Clock
	mu      sync.Mutex
	items   []T
	head    int
	waiters []*Waiter
	closed  bool
}

// NewQueue returns an empty queue bound to c.
func NewQueue[T any](c Clock) *Queue[T] { return &Queue[T]{c: c} }

// PushOpen appends v and wakes one parked consumer, if any. A closed queue
// drops the item and reports false: the communication layer uses that to
// model messages sent to a node that has crashed or shut down — on a real
// fabric such packets vanish at the dead NIC rather than crashing the
// sender.
func (q *Queue[T]) PushOpen(v T) bool {
	q.mu.Lock()
	if q.closed {
		q.mu.Unlock()
		return false
	}
	q.items = append(q.items, v)
	q.wakeOneLocked()
	q.mu.Unlock()
	return true
}

// Close marks the queue as closed and wakes all parked consumers. Pending
// items can still be drained; after that, Pop reports ok=false.
func (q *Queue[T]) Close() {
	q.mu.Lock()
	if !q.closed {
		q.closed = true
		for _, w := range q.waiters {
			w.Wake()
		}
		q.waiters = nil
	}
	q.mu.Unlock()
}

// Pop removes and returns the oldest item. It parks until an item is
// available or the queue is closed and drained, in which case ok is false.
func (q *Queue[T]) Pop() (v T, ok bool) {
	for {
		q.mu.Lock()
		if v, ok = q.popLocked(); ok || q.closed {
			q.mu.Unlock()
			return v, ok
		}
		w := q.c.NewWaiter()
		q.waiters = append(q.waiters, w)
		q.mu.Unlock()
		w.Wait()
	}
}

// TryPop is Pop without the parking: ok is false when nothing is queued.
func (q *Queue[T]) TryPop() (v T, ok bool) {
	q.mu.Lock()
	defer q.mu.Unlock()
	return q.popLocked()
}

func (q *Queue[T]) popLocked() (v T, ok bool) {
	if q.head == len(q.items) {
		return v, false
	}
	v = q.items[q.head]
	var zero T
	q.items[q.head] = zero // release for GC
	q.head++
	if q.head == len(q.items) {
		q.items = q.items[:0]
		q.head = 0
	}
	return v, true
}

// Len reports the number of items currently queued.
func (q *Queue[T]) Len() int {
	q.mu.Lock()
	defer q.mu.Unlock()
	return len(q.items) - q.head
}

func (q *Queue[T]) wakeOneLocked() {
	if len(q.waiters) == 0 {
		return
	}
	w := q.waiters[0]
	copy(q.waiters, q.waiters[1:])
	q.waiters = q.waiters[:len(q.waiters)-1]
	w.Wake()
}

// Gate is a one-shot event: actors parking on Wait are released once Open is
// called. Wait after Open returns immediately.
type Gate struct {
	c       Clock
	mu      sync.Mutex
	open    bool
	waiters []*Waiter
}

// NewGate returns a closed gate bound to c.
func NewGate(c Clock) *Gate { return &Gate{c: c} }

// Wait parks the calling actor until the gate opens.
func (g *Gate) Wait() {
	g.mu.Lock()
	if g.open {
		g.mu.Unlock()
		return
	}
	w := g.c.NewWaiter()
	g.waiters = append(g.waiters, w)
	g.mu.Unlock()
	w.Wait()
}

// Open releases all current and future waiters. Open is idempotent.
func (g *Gate) Open() {
	g.mu.Lock()
	if !g.open {
		g.open = true
		for _, w := range g.waiters {
			w.Wake()
		}
		g.waiters = nil
	}
	g.mu.Unlock()
}

// Semaphore is a counting semaphore whose Acquire parks through the clock.
// It bounds concurrent access to a simulated resource such as a disk
// channel, with two priority classes: demand requests (Acquire) always beat
// queued background requests (AcquireLow), the discipline a storage layer
// needs so prefetching cannot starve demand I/O.
type Semaphore struct {
	c    Clock
	mu   sync.Mutex
	n    int
	high []*Waiter
	low  []*Waiter
}

// NewSemaphore returns a semaphore with n initial permits bound to c.
func NewSemaphore(c Clock, n int) *Semaphore {
	if n < 0 {
		panic("vclock: negative semaphore size")
	}
	return &Semaphore{c: c, n: n}
}

// Acquire takes one permit at demand priority, parking until one is free.
func (s *Semaphore) Acquire() { s.acquire(false) }

// AcquireLow takes one permit at background priority: it is granted only
// when no demand-priority waiter is queued.
func (s *Semaphore) AcquireLow() { s.acquire(true) }

func (s *Semaphore) acquire(low bool) {
	for {
		s.mu.Lock()
		if s.n > 0 && (!low || len(s.high) == 0) {
			s.n--
			s.mu.Unlock()
			return
		}
		w := s.c.NewWaiter()
		if low {
			s.low = append(s.low, w)
		} else {
			s.high = append(s.high, w)
		}
		s.mu.Unlock()
		w.Wait()
	}
}

// HighWaiters reports how many demand-priority actors are currently queued;
// storage devices use it as a saturation signal to shed background work.
func (s *Semaphore) HighWaiters() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.high)
}

// Free reports the number of currently available permits.
func (s *Semaphore) Free() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.n
}

// LowWaiters reports how many background-priority actors are queued.
func (s *Semaphore) LowWaiters() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.low)
}

// Release returns one permit and wakes the next parked actor, demand
// priority first.
func (s *Semaphore) Release() {
	s.mu.Lock()
	s.n++
	if len(s.high) > 0 {
		w := s.high[0]
		copy(s.high, s.high[1:])
		s.high = s.high[:len(s.high)-1]
		w.Wake()
	} else if len(s.low) > 0 {
		w := s.low[0]
		copy(s.low, s.low[1:])
		s.low = s.low[:len(s.low)-1]
		w.Wake()
	}
	s.mu.Unlock()
}
