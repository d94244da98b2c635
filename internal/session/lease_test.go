package session

import (
	"errors"
	"sync"
	"testing"
	"time"

	"viracocha/internal/vclock"
)

// runVirtual drives fn as the single actor of a fresh virtual clock, so
// lease expiry is exercised in deterministic time.
func runVirtual(t *testing.T, fn func(v *vclock.Virtual)) {
	t.Helper()
	v := vclock.NewVirtual()
	v.Go(func() { fn(v) })
	v.Wait()
}

func TestLeaseIssueAndResume(t *testing.T) {
	runVirtual(t, func(v *vclock.Virtual) {
		r := NewRegistry(v, time.Second)
		l := r.Issue()
		if l.ID == "" || l.Epoch != 0 {
			t.Fatalf("fresh lease = %+v", l)
		}
		got, err := r.Resume(l.ID, 0)
		if err != nil {
			t.Fatalf("resume: %v", err)
		}
		if got.Epoch != 1 {
			t.Fatalf("epoch after resume = %d, want 1", got.Epoch)
		}
	})
}

func TestResumeAfterExpiry(t *testing.T) {
	runVirtual(t, func(v *vclock.Virtual) {
		r := NewRegistry(v, time.Second)
		l := r.Issue()
		v.Sleep(1500 * time.Millisecond)
		if _, err := r.Resume(l.ID, 0); !errors.Is(err, ErrUnknownSession) {
			t.Fatalf("resume after expiry = %v, want ErrUnknownSession", err)
		}
		// The failed resume must have evicted the corpse.
		if r.Len() != 0 {
			t.Fatalf("expired lease survived failed resume: %d tracked", r.Len())
		}
	})
}

func TestDoubleResumeStaleEpochFenced(t *testing.T) {
	runVirtual(t, func(v *vclock.Virtual) {
		r := NewRegistry(v, time.Second)
		l := r.Issue()
		first, err := r.Resume(l.ID, 0)
		if err != nil {
			t.Fatalf("first resume: %v", err)
		}
		// A second reconnect replaying the original epoch (e.g. a zombie
		// connection that lost the race) must be fenced, not adopted.
		if _, err := r.Resume(l.ID, 0); !errors.Is(err, ErrStaleEpoch) {
			t.Fatalf("stale resume = %v, want ErrStaleEpoch", err)
		}
		// The winner's epoch keeps working.
		if _, err := r.Resume(l.ID, first.Epoch); err != nil {
			t.Fatalf("winner's re-resume: %v", err)
		}
	})
}

func TestTouchRenewsAndExpiredSweeps(t *testing.T) {
	runVirtual(t, func(v *vclock.Virtual) {
		r := NewRegistry(v, time.Second)
		kept := r.Issue()
		lost := r.Issue()
		v.Sleep(700 * time.Millisecond)
		if !r.Touch(kept.ID) {
			t.Fatal("touch of live lease failed")
		}
		v.Sleep(700 * time.Millisecond) // lost is now 1.4s old; kept 0.7s since renewal
		exp := r.Expired()
		if len(exp) != 1 || exp[0] != lost.ID {
			t.Fatalf("expired = %v, want [%s]", exp, lost.ID)
		}
		// Expired does not evict; the owner drops after purging.
		if r.Len() != 2 {
			t.Fatalf("Expired evicted: %d tracked, want 2", r.Len())
		}
		r.Drop(lost.ID)
		if r.Len() != 1 {
			t.Fatalf("after drop: %d tracked, want 1", r.Len())
		}
		if r.Touch(lost.ID) {
			t.Fatal("touch of dropped lease succeeded")
		}
	})
}

// TestLeaseRenewalRace hammers Touch/Expired/Resume from concurrent
// goroutines under the race detector: the registry must stay internally
// consistent and the fencing epoch strictly monotonic.
func TestLeaseRenewalRace(t *testing.T) {
	r := NewRegistry(vclock.NewReal(), 50*time.Millisecond)
	l := r.Issue()
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				r.Touch(l.ID)
				r.Expired()
			}
		}()
	}
	epoch := 0
	for i := 0; i < 50; i++ {
		got, err := r.Resume(l.ID, epoch)
		if err != nil {
			t.Errorf("resume %d: %v", i, err)
			break
		}
		if got.Epoch != epoch+1 {
			t.Errorf("epoch after resume %d = %d, want %d", i, got.Epoch, epoch+1)
			break
		}
		epoch = got.Epoch
	}
	close(stop)
	wg.Wait()
}

func TestRegistryRestore(t *testing.T) {
	runVirtual(t, func(v *vclock.Virtual) {
		v.Sleep(600 * time.Millisecond) // a restore mid-life: expiry counts from now
		r := NewRegistry(v, time.Second)
		r.Restore(7, map[string]int{"sess-3": 2})
		if _, err := r.Resume("sess-3", 1); !errors.Is(err, ErrStaleEpoch) {
			t.Fatalf("resume at a pre-restore epoch = %v, want ErrStaleEpoch", err)
		}
		v.Sleep(900 * time.Millisecond) // inside the full TTL the restore granted
		got, err := r.Resume("sess-3", 2)
		if err != nil {
			t.Fatalf("resume of a restored lease: %v", err)
		}
		if got.Epoch != 3 {
			t.Fatalf("epoch after resume = %d, want 3", got.Epoch)
		}
		// New IDs continue past the recovered counter.
		if fresh := r.Issue(); fresh.ID != "sess-8" {
			t.Fatalf("restored registry issued %s, want sess-8", fresh.ID)
		}
	})
}
