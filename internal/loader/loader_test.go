package loader

import (
	"errors"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"viracocha/internal/dataset"
	"viracocha/internal/grid"
	"viracocha/internal/storage"
	"viracocha/internal/vclock"
)

func tinyID(b int) grid.BlockID { return grid.BlockID{Dataset: "tiny", Step: 0, Block: b} }

func newDev(v vclock.Clock, name string, latency time.Duration, bw float64) *storage.Device {
	return storage.NewDevice(name, &storage.GenBackend{Desc: dataset.Tiny()}, v, latency, bw, 1)
}

func TestSelectorPrefersCheapestSource(t *testing.T) {
	v := vclock.NewVirtual()
	fast := &DeviceSource{Dev: newDev(v, "local-disk", time.Millisecond, 100e6)}
	slow := &DeviceSource{Dev: newDev(v, "file-server", 20*time.Millisecond, 10e6)}
	s := NewSelector(v, 0, slow, fast)
	v.Go(func() {
		src, err := s.Decide(tinyID(0))
		if err != nil {
			t.Error(err)
			return
		}
		if src.Name() != "local-disk" {
			t.Errorf("Decide = %s, want local-disk", src.Name())
		}
	})
	v.Wait()
}

func TestSelectorChargesDecideCost(t *testing.T) {
	v := vclock.NewVirtual()
	src := &DeviceSource{Dev: newDev(v, "disk", 0, 0)}
	s := NewSelector(v, 2*time.Millisecond, src)
	v.Go(func() {
		if _, err := s.Decide(tinyID(0)); err != nil {
			t.Error(err)
		}
	})
	v.Wait()
	if v.Now() != 2*time.Millisecond {
		t.Fatalf("decide charged %v, want 2ms", v.Now())
	}
}

func TestSelectorLoadFallsBackOnFailure(t *testing.T) {
	v := vclock.NewVirtual()
	// The "cheap" source always fails; the selector must fall back and
	// still return the block.
	failing := &storage.FailingBackend{
		Inner: &storage.GenBackend{Desc: dataset.Tiny()},
		Match: func(grid.BlockID) bool { return true },
		Err:   errors.New("nfs down"),
	}
	bad := &DeviceSource{Dev: storage.NewDevice("broken", failing, v, 0, 0, 1)}
	good := &DeviceSource{Dev: newDev(v, "disk", 10*time.Millisecond, 0)}
	s := NewSelector(v, 0, bad, good)
	v.Go(func() {
		b, _, err := s.Load(tinyID(1))
		if err != nil || b == nil {
			t.Errorf("Load = %v, %v", b, err)
		}
	})
	v.Wait()
	if r := s.Reliability("broken"); r >= 1 {
		t.Fatalf("failure not observed: reliability = %v", r)
	}
	if r := s.Reliability("disk"); r != 1 {
		t.Fatalf("success degraded reliability: %v", r)
	}
}

func TestSelectorAdaptsAwayFromFailingSource(t *testing.T) {
	v := vclock.NewVirtual()
	failing := &storage.FailingBackend{
		Inner: &storage.GenBackend{Desc: dataset.Tiny()},
		Match: func(grid.BlockID) bool { return true },
	}
	// The broken source looks cheaper (zero latency) so it is tried first —
	// until reliability observations push its fitness above the good one.
	bad := &DeviceSource{Dev: storage.NewDevice("broken", failing, v, 0, 0, 1)}
	good := &DeviceSource{Dev: newDev(v, "disk", 5*time.Millisecond, 0)}
	s := NewSelector(v, 0, bad, good)
	v.Go(func() {
		for i := 0; i < 10; i++ {
			if _, _, err := s.Load(tinyID(i % 4)); err != nil {
				t.Error(err)
				return
			}
		}
		// After repeated failures the selector must prefer "disk" outright.
		src, err := s.Decide(tinyID(0))
		if err != nil {
			t.Error(err)
			return
		}
		if src.Name() != "disk" {
			t.Errorf("selector still prefers %s after failures", src.Name())
		}
	})
	v.Wait()
}

func TestSelectorNoSources(t *testing.T) {
	v := vclock.NewVirtual()
	s := NewSelector(v, 0)
	v.Go(func() {
		if _, _, err := s.Load(tinyID(0)); err == nil {
			t.Error("expected error with no sources")
		}
	})
	v.Wait()
}

func TestSelectorAllFail(t *testing.T) {
	v := vclock.NewVirtual()
	failing := &storage.FailingBackend{
		Inner: &storage.GenBackend{Desc: dataset.Tiny()},
		Match: func(grid.BlockID) bool { return true },
		Err:   errors.New("boom"),
	}
	bad := &DeviceSource{Dev: storage.NewDevice("broken", failing, v, 0, 0, 1)}
	s := NewSelector(v, 0, bad)
	v.Go(func() {
		_, _, err := s.Load(tinyID(0))
		if err == nil || !strings.Contains(err.Error(), "all sources failed") {
			t.Errorf("err = %v", err)
		}
	})
	v.Wait()
}

func TestFuncSourceAvailability(t *testing.T) {
	v := vclock.NewVirtual()
	mem := storage.NewMemBackend()
	blk := dataset.Tiny().Generate(0, 2)
	mem.Put(blk)
	peer := &FuncSource{
		SourceName: "peer",
		AvailFn:    func(id grid.BlockID) bool { _, _, err := mem.Fetch(id); return err == nil },
		CostFn:     func(grid.BlockID) time.Duration { return time.Microsecond },
		LoadFn:     func(id grid.BlockID) (*grid.Block, int64, error) { return mem.Fetch(id) },
	}
	disk := &DeviceSource{Dev: newDev(v, "disk", 50*time.Millisecond, 0)}
	s := NewSelector(v, 0, disk, peer)
	v.Go(func() {
		// Cached block: peer wins.
		src, _ := s.Decide(blk.ID)
		if src.Name() != "peer" {
			t.Errorf("Decide cached = %s, want peer", src.Name())
		}
		// Uncached block: peer unavailable, disk wins.
		src, _ = s.Decide(tinyID(3))
		if src.Name() != "disk" {
			t.Errorf("Decide uncached = %s, want disk", src.Name())
		}
	})
	v.Wait()
}

func TestCollectiveAmortizesLatency(t *testing.T) {
	v := vclock.NewVirtual()
	// High-latency device: collective pays latency once.
	dev := storage.NewDevice("fs", &storage.GenBackend{Desc: dataset.Tiny()}, v, 100*time.Millisecond, 0, 1)
	col := &Collective{Dev: dev, Clock: v, CoordinationCost: time.Millisecond}
	ids := []grid.BlockID{tinyID(0), tinyID(1), tinyID(2), tinyID(3)}
	v.Go(func() {
		blocks, _, err := col.LoadRun(ids)
		if err != nil || len(blocks) != 4 {
			t.Errorf("LoadRun = %d blocks, %v", len(blocks), err)
		}
	})
	v.Wait()
	// 4 coordination ms + 1 latency (100ms) = 104ms, vs 400ms individually.
	want := 4*time.Millisecond + 100*time.Millisecond
	if v.Now() != want {
		t.Fatalf("collective cost %v, want %v", v.Now(), want)
	}
}

func TestCollectiveCanLoseToIndependentLoads(t *testing.T) {
	v := vclock.NewVirtual()
	// Low-latency device + expensive coordination: collective loses, the
	// paper's observed regime.
	dev := storage.NewDevice("disk", &storage.GenBackend{Desc: dataset.Tiny()}, v, time.Millisecond, 0, 1)
	col := &Collective{Dev: dev, Clock: v, CoordinationCost: 10 * time.Millisecond}
	ids := []grid.BlockID{tinyID(0), tinyID(1), tinyID(2)}
	v.Go(func() {
		if _, _, err := col.LoadRun(ids); err != nil {
			t.Error(err)
		}
	})
	v.Wait()
	collective := v.Now() // 30ms coordination + 1ms latency

	v2 := vclock.NewVirtual()
	dev2 := storage.NewDevice("disk", &storage.GenBackend{Desc: dataset.Tiny()}, v2, time.Millisecond, 0, 1)
	v2.Go(func() {
		for _, id := range ids {
			dev2.Load(id)
		}
	})
	v2.Wait()
	if collective <= v2.Now() {
		t.Fatalf("collective %v should lose to independent %v here", collective, v2.Now())
	}
}

func TestCollectiveEmptyRun(t *testing.T) {
	v := vclock.NewVirtual()
	dev := storage.NewDevice("disk", &storage.GenBackend{Desc: dataset.Tiny()}, v, 0, 0, 1)
	col := &Collective{Dev: dev, Clock: v}
	blocks, n, err := col.LoadRun(nil)
	if blocks != nil || n != 0 || err != nil {
		t.Fatalf("empty run = %v,%d,%v", blocks, n, err)
	}
}

func TestLoadBackgroundShedsWhenSaturated(t *testing.T) {
	// The saturation policy allows one queued background request per device
	// (a prefetch pipeline needs that much); anything beyond is shed.
	v := vclock.NewVirtual()
	dev := storage.NewDevice("disk", &storage.GenBackend{Desc: dataset.Tiny()}, v, 0, 1e3, 1)
	src := &DeviceSource{Dev: dev}
	s := NewSelector(v, 0, src)
	var queued, shed atomic.Bool
	v.Go(func() {
		// Occupy the only channel with a long demand load.
		s.Load(tinyID(0))
	})
	v.Go(func() {
		v.Sleep(time.Millisecond) // let the demand load start
		// First background load: allowed to queue behind the transfer.
		_, _, err := s.LoadBackground(tinyID(1))
		if err == nil {
			queued.Store(true)
		}
	})
	v.Go(func() {
		v.Sleep(2 * time.Millisecond) // after the first background queued
		_, _, err := s.LoadBackground(tinyID(2))
		if errors.Is(err, ErrBusy) {
			shed.Store(true)
		}
	})
	v.Wait()
	if !queued.Load() {
		t.Fatal("first background load should have been allowed to queue")
	}
	if !shed.Load() {
		t.Fatal("second background load not shed while the device was saturated")
	}
	// Shedding must not damage the source's reliability estimate.
	if r := s.Reliability("disk"); r != 1 {
		t.Fatalf("reliability = %v after shed", r)
	}
}

func TestLoadBackgroundSucceedsWhenIdle(t *testing.T) {
	v := vclock.NewVirtual()
	dev := storage.NewDevice("disk", &storage.GenBackend{Desc: dataset.Tiny()}, v, 0, 0, 2)
	s := NewSelector(v, 0, &DeviceSource{Dev: dev})
	v.Go(func() {
		b, _, err := s.LoadBackground(tinyID(0))
		if err != nil || b == nil {
			t.Errorf("idle background load failed: %v", err)
		}
	})
	v.Wait()
}
