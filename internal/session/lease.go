package session

import (
	"errors"
	"fmt"
	"sort"
	"sync"
	"time"

	"viracocha/internal/vclock"
)

// DefaultLeaseTTL is the lease duration used when a registry is built with
// ttl <= 0: long enough to ride out a WAN reconnect storm, short enough that
// an abandoned session releases its quota within one operator sigh.
const DefaultLeaseTTL = 30 * time.Second

// ErrUnknownSession rejects a resume handshake naming a session the server
// does not hold: never issued, already purged, or expired past its lease.
var ErrUnknownSession = errors.New("session: unknown or expired session")

// ErrStaleEpoch fences a resume handshake carrying an old epoch: another
// connection has already resumed the session, and the fencing epoch ensures
// exactly one of two racing reconnects wins.
var ErrStaleEpoch = errors.New("session: stale epoch: lease already resumed")

// Lease is one durable session's server-issued claim: the ID names the
// session across connections, the epoch fences concurrent resumes (each
// successful resume bumps it, invalidating handshakes from older
// connections), and the expiry bounds how long the server retains state for
// a client that went away.
type Lease struct {
	ID     string
	Epoch  int
	Expiry time.Duration // clock time at which the lease lapses
}

// Registry issues and tracks session leases under the runtime clock. All
// methods are safe for concurrent use; the registry never expires entries on
// its own — callers sweep Expired() and Drop what they purge, so eviction
// stays tied to the owner's cleanup path.
type Registry struct {
	clock vclock.Clock
	ttl   time.Duration

	mu      sync.Mutex
	counter uint64
	leases  map[string]*Lease
}

// NewRegistry builds a lease registry on the given clock; ttl <= 0 selects
// DefaultLeaseTTL.
func NewRegistry(c vclock.Clock, ttl time.Duration) *Registry {
	if ttl <= 0 {
		ttl = DefaultLeaseTTL
	}
	return &Registry{clock: c, ttl: ttl, leases: map[string]*Lease{}}
}

// TTL reports the registry's lease duration.
func (r *Registry) TTL() time.Duration { return r.ttl }

// Issue creates a fresh lease at epoch 0.
func (r *Registry) Issue() Lease {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.counter++
	l := &Lease{
		ID:     fmt.Sprintf("sess-%d", r.counter),
		Expiry: r.clock.Now() + r.ttl,
	}
	r.leases[l.ID] = l
	return *l
}

// Resume validates a reconnect handshake against the lease table. A lease
// that expired (even if not yet swept) or was never issued fails with
// ErrUnknownSession; a handshake carrying an epoch older than the lease's
// current one fails with ErrStaleEpoch. On success the epoch is bumped —
// fencing any connection still holding the previous epoch — and the expiry
// renewed.
func (r *Registry) Resume(id string, epoch int) (Lease, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	l, ok := r.leases[id]
	if !ok {
		return Lease{}, fmt.Errorf("%w: %q", ErrUnknownSession, id)
	}
	if r.clock.Now() > l.Expiry {
		// Expired but not yet swept: treat exactly like a purged session so
		// the outcome does not depend on sweeper timing.
		delete(r.leases, id)
		return Lease{}, fmt.Errorf("%w: %q (lease expired)", ErrUnknownSession, id)
	}
	if epoch != l.Epoch {
		return Lease{}, fmt.Errorf("%w: %q epoch %d, current %d", ErrStaleEpoch, id, epoch, l.Epoch)
	}
	l.Epoch++
	l.Expiry = r.clock.Now() + r.ttl
	return *l, nil
}

// Touch renews a live lease (a connected client keeps its session alive
// indefinitely); it reports false for an unknown or expired lease.
func (r *Registry) Touch(id string) bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	l, ok := r.leases[id]
	if !ok || r.clock.Now() > l.Expiry {
		return false
	}
	l.Expiry = r.clock.Now() + r.ttl
	return true
}

// Expired lists leases past their expiry, sorted for deterministic sweeps.
// It does not remove them: the owner purges session state first and then
// calls Drop, so a crash between the two leaves the lease (harmlessly)
// sweepable again rather than orphaning state.
func (r *Registry) Expired() []string {
	r.mu.Lock()
	defer r.mu.Unlock()
	now := r.clock.Now()
	var out []string
	for id, l := range r.leases {
		if now > l.Expiry {
			out = append(out, id)
		}
	}
	sort.Strings(out)
	return out
}

// Drop removes a lease (session purged or client said goodbye).
func (r *Registry) Drop(id string) {
	r.mu.Lock()
	defer r.mu.Unlock()
	delete(r.leases, id)
}

// Len reports the number of tracked leases, expired ones included.
func (r *Registry) Len() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.leases)
}

// Restore loads leases recovered from the write-ahead log into a fresh
// registry: counter continues the ID sequence so recovered and new session
// IDs never collide, and every lease resumes at its recorded epoch with a
// full TTL (the restart itself may have eaten most of the old one).
func (r *Registry) Restore(counter uint64, epochs map[string]int) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.counter = counter
	expiry := r.clock.Now() + r.ttl
	for id, epoch := range epochs {
		r.leases[id] = &Lease{ID: id, Epoch: epoch, Expiry: expiry}
	}
}
