// Package vclock provides a pluggable notion of time for the Viracocha
// runtime: a real clock backed by package time, and a deterministic virtual
// clock that advances only when every registered actor is blocked and a
// driver is waiting on it.
//
// The virtual clock is the substrate that makes the paper's scaling
// experiments reproducible on any host: worker goroutines charge the compute
// and I/O costs they incur to the clock with Sleep, and the clock computes
// the makespan a machine with that many independent processors would have
// observed. All higher layers (scheduler, workers, DMS, streaming) are
// written against the Clock interface and run unmodified under either
// implementation.
//
// Rules for code running under a virtual clock:
//
//   - Every goroutine that participates in virtual time must be started with
//     Clock.Go (directly or transitively).
//   - Actors must not block on bare channels or mutexes for unbounded time;
//     cross-actor blocking goes through the clock-aware primitives in this
//     package (Waiter, Parker, Queue, Gate, Semaphore), which inform the
//     clock that the actor is parked.
//   - Short critical sections guarded by sync.Mutex are fine: the clock only
//     needs to know about indefinite blocking.
package vclock

import (
	"fmt"
	"sync"
	"time"
)

// Clock is the time source and actor registry used by the runtime.
//
// Now reports elapsed time since the clock started. Sleep parks the calling
// actor for d; under the virtual clock this is also how compute or transfer
// cost is charged. Go spawns a new actor. NewWaiter creates a one-shot
// parking primitive integrated with the clock's bookkeeping, NewParker a
// reusable one with a deadline. Wait blocks the (unregistered) caller until
// every actor spawned with Go has returned.
type Clock interface {
	Now() time.Duration
	Sleep(d time.Duration)
	Go(fn func())
	NewWaiter() *Waiter
	NewParker() *Parker
	Wait()
}

// Virtual is a deterministic discrete-event clock. Time advances to the
// earliest pending wake-up whenever all registered actors are parked and a
// driver — the goroutine outside the simulation that assembles it — is blocked
// in Wait: until then the driver may still be spawning actors, and time that
// ran ahead of them would make "crash w1 at 1s" fire before the request it is
// aimed at exists. If all actors are parked and none has a wake-up time, the
// system cannot make progress and Virtual panics with a diagnostic, since that
// is a genuine deadlock in the simulated system.
type Virtual struct {
	// OnDeadlock, when set, is invoked instead of panicking when the
	// watchdog confirms a deadlock (tests use it to observe the condition).
	OnDeadlock func(live, waiting int, at time.Duration)

	mu       sync.Mutex
	now      time.Duration
	live     int // actors spawned and not yet exited
	running  int // live actors not currently parked
	waiting  int // actors parked with no wake-up time (Waiter.Wait)
	drivers  int // non-actor goroutines blocked in Wait
	sleepers sleepHeap
	seq      int64
	stateGen uint64        // bumped on every liveness-relevant transition
	watching bool          // a deadlock watchdog is armed
	allDone  chan struct{} // closed when live drops to 0; reset by Go
}

// watchdogDelay is how long (wall time) an all-parked state must persist
// before it is declared a deadlock. The grace period exists because a
// virtual system legitimately passes through all-parked, no-sleeper states
// while its driver is still spawning actors or external code is about to
// inject work. (States with a sleeper need no grace: time holds still until
// the driver calls Wait.)
const watchdogDelay = 250 * time.Millisecond

// NewVirtual returns a virtual clock at time zero with no actors.
func NewVirtual() *Virtual {
	return &Virtual{allDone: make(chan struct{})}
}

// Now reports the current virtual time.
func (v *Virtual) Now() time.Duration {
	v.mu.Lock()
	defer v.mu.Unlock()
	return v.now
}

// Sleep parks the calling actor until virtual time advances by d. The caller
// must be an actor (started with Go). Non-positive d returns immediately.
func (v *Virtual) Sleep(d time.Duration) {
	if d <= 0 {
		return
	}
	ch := make(chan struct{})
	v.mu.Lock()
	v.stateGen++
	v.seq++
	v.sleepers.push(sleeper{wake: v.now + d, seq: v.seq, ch: ch})
	v.running--
	v.maybeAdvanceLocked()
	v.mu.Unlock()
	<-ch
}

// Go registers and starts a new actor. It may be called from inside or
// outside another actor. The actor is counted as running until it parks via
// Sleep or a Waiter, and as live until fn returns. Actors a driver spawns
// before it calls Wait all start at the same virtual instant, however long the
// driver takes between them.
func (v *Virtual) Go(fn func()) {
	v.mu.Lock()
	v.stateGen++
	if v.live == 0 {
		// First actor of a new wave: arm a fresh completion signal.
		select {
		case <-v.allDone:
			v.allDone = make(chan struct{})
		default:
		}
	}
	v.live++
	v.running++
	v.mu.Unlock()
	go func() {
		defer v.exit()
		fn()
	}()
}

func (v *Virtual) exit() {
	v.mu.Lock()
	v.stateGen++
	v.live--
	v.running--
	if v.live == 0 {
		close(v.allDone)
		// Drop any residual time bookkeeping consistency checks here: with
		// no live actors there is nothing to advance.
		v.mu.Unlock()
		return
	}
	v.maybeAdvanceLocked()
	v.mu.Unlock()
}

// Wait blocks the caller (which must NOT be an actor) until all actors have
// exited. Virtual time advances only while at least one caller is blocked
// here. It is safe to call Wait concurrently from several goroutines.
func (v *Virtual) Wait() {
	v.mu.Lock()
	if v.live == 0 {
		v.mu.Unlock()
		return
	}
	ch := v.allDone
	v.drivers++
	v.maybeAdvanceLocked()
	v.mu.Unlock()
	<-ch
	v.mu.Lock()
	v.drivers--
	v.mu.Unlock()
}

// NewWaiter returns a one-shot parking primitive tied to this clock.
func (v *Virtual) NewWaiter() *Waiter { return &Waiter{v: v, ch: make(chan struct{})} }

// NewParker returns a reusable parking point tied to this clock.
func (v *Virtual) NewParker() *Parker { return &Parker{v: v, ch: make(chan struct{}, 1)} }

// maybeAdvanceLocked advances virtual time if no actor is runnable and a
// driver is blocked in Wait. All sleepers sharing the earliest wake-up time
// are released together. An all-parked state with no pending wake-up arms the
// deadlock watchdog.
func (v *Virtual) maybeAdvanceLocked() {
	if v.running > 0 {
		return
	}
	// A Parker that was unparked before its deadline leaves its entry behind;
	// time must never advance to one.
	for v.sleepers.len() > 0 && v.sleepers.min().disarmed() {
		v.sleepers.pop()
	}
	if v.sleepers.len() == 0 {
		if v.live > 0 && v.waiting > 0 && !v.watching {
			v.watching = true
			go v.watchdog(v.stateGen)
		}
		return
	}
	if v.drivers == 0 {
		return
	}
	v.stateGen++
	wake := v.sleepers.min().wake
	if wake > v.now {
		v.now = wake
	}
	for v.sleepers.len() > 0 && v.sleepers.min().wake == wake {
		s := v.sleepers.pop()
		if s.disarmed() {
			continue
		}
		v.running++
		if p := s.parker; p != nil {
			p.parked, p.timed = false, false
			p.ch <- struct{}{}
		} else {
			close(s.ch)
		}
	}
}

// watchdog confirms a suspected deadlock after a wall-time grace period: if
// no liveness-relevant transition happened since it was armed and the system
// is still fully parked with no pending wake-up, the simulated system cannot
// make progress on its own.
func (v *Virtual) watchdog(gen uint64) {
	time.Sleep(watchdogDelay)
	v.mu.Lock()
	v.watching = false
	stuck := v.stateGen == gen && v.running == 0 && v.sleepers.len() == 0 &&
		v.live > 0 && v.waiting > 0
	live, waiting, at := v.live, v.waiting, v.now
	if stuck && v.OnDeadlock == nil {
		v.mu.Unlock()
		panic(fmt.Sprintf("vclock: deadlock: all %d live actors are parked (%d waiting indefinitely) at t=%v", live, waiting, at))
	}
	hook := v.OnDeadlock
	v.mu.Unlock()
	if stuck && hook != nil {
		hook(live, waiting, at)
	}
}

// sleeper is one parked actor with a scheduled wake-up: a Sleep, closed
// through ch, or a Parker's deadline, armed while parker.gen equals gen.
type sleeper struct {
	wake   time.Duration
	seq    int64 // FIFO tie-break for determinism
	ch     chan struct{}
	parker *Parker
	gen    uint64
}

// disarmed reports a Parker deadline whose park ended before it came.
func (s *sleeper) disarmed() bool { return s.parker != nil && s.parker.gen != s.gen }

// sleepHeap is a binary min-heap ordered by (wake, seq).
type sleepHeap struct{ s []sleeper }

func (h *sleepHeap) len() int      { return len(h.s) }
func (h *sleepHeap) min() *sleeper { return &h.s[0] }

func (h *sleepHeap) less(i, j int) bool {
	if h.s[i].wake != h.s[j].wake {
		return h.s[i].wake < h.s[j].wake
	}
	return h.s[i].seq < h.s[j].seq
}

func (h *sleepHeap) push(v sleeper) {
	h.s = append(h.s, v)
	i := len(h.s) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !h.less(i, parent) {
			break
		}
		h.s[i], h.s[parent] = h.s[parent], h.s[i]
		i = parent
	}
}

func (h *sleepHeap) pop() sleeper {
	top := h.s[0]
	last := len(h.s) - 1
	h.s[0] = h.s[last]
	h.s = h.s[:last]
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		smallest := i
		if l < len(h.s) && h.less(l, smallest) {
			smallest = l
		}
		if r < len(h.s) && h.less(r, smallest) {
			smallest = r
		}
		if smallest == i {
			break
		}
		h.s[i], h.s[smallest] = h.s[smallest], h.s[i]
		i = smallest
	}
	return top
}

// Waiter is a one-shot parking primitive. One actor calls Wait, any
// goroutine calls Wake. Wake-before-Wait is allowed and makes Wait return
// immediately; both calls are idempotent in the sense that extra Wakes are
// no-ops and Wait may be called at most once.
type Waiter struct {
	v      *Virtual // nil when backed by a real clock
	once   sync.Once
	mu     sync.Mutex
	parked bool
	woken  bool
	ch     chan struct{}
}

// Wait parks the calling actor until Wake is called.
func (w *Waiter) Wait() {
	if w.v == nil {
		<-w.ch
		return
	}
	v := w.v
	v.mu.Lock()
	v.stateGen++
	if w.woken {
		v.mu.Unlock()
		return
	}
	w.parked = true
	v.running--
	v.waiting++
	v.maybeAdvanceLocked()
	v.mu.Unlock()
	<-w.ch
}

// Wake releases the waiter. The first call wins; subsequent calls are no-ops.
func (w *Waiter) Wake() {
	if w.v == nil {
		w.once.Do(func() { close(w.ch) })
		return
	}
	v := w.v
	v.mu.Lock()
	v.stateGen++
	if w.woken {
		v.mu.Unlock()
		return
	}
	w.woken = true
	if w.parked {
		v.waiting--
		v.running++
		close(w.ch)
	} else {
		close(w.ch)
	}
	v.mu.Unlock()
}

// Parker is a reusable parking point for one actor at a time. Park blocks
// the calling actor until Unpark is called or the clock reaches a deadline;
// an Unpark that finds no actor parked is kept as a permit, which makes the
// next Park return at once (one permit at most). Unlike a Waiter, a Parker is
// re-armed by every Park, and once it exists neither call allocates nor
// starts a goroutine — it is the parking point of an actor that parks over
// and over, such as a producer waiting for stream credit. Callers re-check
// their condition after Park returns: a stale permit or an expired deadline
// wakes them too.
type Parker struct {
	v     *Virtual      // nil when backed by a real clock
	r     *Real         // nil when backed by a virtual clock
	ch    chan struct{} // capacity 1: the wake-up, or a waiting permit
	timer *time.Timer   // real clock: the deadline, made by the first timed Park

	// Virtual clock state, guarded by v.mu.
	parked bool
	timed  bool   // parked with a deadline: a sleeper, not a waiter
	permit bool   // Unpark came while nobody was parked
	gen    uint64 // bumped when Unpark ends a timed park: disarms its sleeper
}

// Park blocks the calling actor until Unpark, or until the clock reads until
// (until <= 0: no deadline). It returns at once on a waiting permit or a
// deadline already passed.
func (p *Parker) Park(until time.Duration) {
	if p.v == nil {
		p.parkReal(until)
		return
	}
	v := p.v
	v.mu.Lock()
	v.stateGen++
	if p.permit || (until > 0 && until <= v.now) {
		p.permit = false
		v.mu.Unlock()
		return
	}
	p.parked = true
	v.running--
	if until > 0 {
		p.timed = true
		v.seq++
		v.sleepers.push(sleeper{wake: until, seq: v.seq, parker: p, gen: p.gen})
	} else {
		v.waiting++
	}
	v.maybeAdvanceLocked()
	v.mu.Unlock()
	<-p.ch
}

func (p *Parker) parkReal(until time.Duration) {
	if until <= 0 {
		<-p.ch
		return
	}
	d := until - p.r.Now()
	if d <= 0 {
		return
	}
	if p.timer == nil {
		p.timer = time.NewTimer(d)
	} else {
		p.timer.Reset(d)
	}
	select {
	case <-p.ch:
	case <-p.timer.C:
	}
	if !p.timer.Stop() {
		select { // a deadline that fired beside the wake-up must not linger
		case <-p.timer.C:
		default:
		}
	}
}

// Unpark releases the parked actor, disarming its deadline, or leaves a
// permit for the next Park. Any goroutine may call it.
func (p *Parker) Unpark() {
	if p.v == nil {
		select {
		case p.ch <- struct{}{}:
		default: // a permit is already waiting
		}
		return
	}
	v := p.v
	v.mu.Lock()
	v.stateGen++
	switch {
	case !p.parked:
		p.permit = true
	case p.timed:
		p.parked, p.timed = false, false
		p.gen++
		v.running++
		p.ch <- struct{}{}
	default:
		p.parked = false
		v.waiting--
		v.running++
		p.ch <- struct{}{}
	}
	v.mu.Unlock()
}

// Real is a Clock backed by the system clock. Sleep really sleeps; actors
// are ordinary goroutines tracked by a WaitGroup.
type Real struct {
	start time.Time
	wg    sync.WaitGroup
}

// NewReal returns a real clock whose Now is measured from this call.
func NewReal() *Real { return &Real{start: time.Now()} }

// Now reports wall time elapsed since the clock was created.
func (r *Real) Now() time.Duration { return time.Since(r.start) }

// Sleep pauses the calling goroutine for d of wall time.
func (r *Real) Sleep(d time.Duration) {
	if d <= 0 {
		return
	}
	time.Sleep(d)
}

// Go runs fn in a new goroutine tracked by Wait.
func (r *Real) Go(fn func()) {
	r.wg.Add(1)
	go func() {
		defer r.wg.Done()
		fn()
	}()
}

// NewWaiter returns a waiter backed by a plain channel.
func (r *Real) NewWaiter() *Waiter { return &Waiter{ch: make(chan struct{})} }

// NewParker returns a parker backed by a channel and, once it parks with a
// deadline, one reusable timer.
func (r *Real) NewParker() *Parker { return &Parker{r: r, ch: make(chan struct{}, 1)} }

// Wait blocks until all goroutines started with Go have returned.
func (r *Real) Wait() { r.wg.Wait() }

var (
	_ Clock = (*Virtual)(nil)
	_ Clock = (*Real)(nil)
)
