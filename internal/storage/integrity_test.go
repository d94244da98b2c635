package storage

import (
	"bytes"
	"encoding/binary"
	"errors"
	"runtime"
	"testing"
	"time"

	"viracocha/internal/dataset"
	"viracocha/internal/grid"
	"viracocha/internal/vclock"
)

// TestBlockChecksumDetectsBitFlips: every single-byte mutation of an encoded
// block frame past the magic must surface as ErrCorrupt (CRC-32C trailer),
// not as silently wrong data.
func TestBlockChecksumDetectsBitFlips(t *testing.T) {
	good := EncodeBlock(testBlock())
	for _, off := range []int{4, len(good) / 2, len(good) - 1} {
		bad := append([]byte{}, good...)
		bad[off] ^= 0x40
		_, err := DecodeBlock(bad)
		if !errors.Is(err, ErrCorrupt) {
			t.Errorf("flip at %d: err = %v, want ErrCorrupt", off, err)
		}
	}
	if _, err := DecodeBlock(good); err != nil {
		t.Fatalf("pristine frame rejected: %v", err)
	}
}

// TestDecodeBlockSizesNothingByItsHeader: a sealed frame whose dims claim
// far more nodes than its body holds, or that repeats a field, is rejected —
// the first before it allocates the arrays its dims describe.
func TestDecodeBlockSizesNothingByItsHeader(t *testing.T) {
	le := binary.LittleEndian
	hdr := le.AppendUint32(nil, blockMagic)
	hdr = append(le.AppendUint32(hdr, 1), 'x') // dataset "x"
	for _, v := range []uint32{0, 0, 128, 128, 128} {
		hdr = le.AppendUint32(hdr, v) // step, block, dims
	}
	frame := sealed(append(hdr, make([]byte, 64)...))
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err := DecodeBlock(frame)
	runtime.ReadMemStats(&after)
	if err == nil {
		t.Fatal("a frame too short for its dims decoded")
	}
	if grew := after.TotalAlloc - before.TotalAlloc; grew > 1<<20 {
		t.Fatalf("rejecting a %d-byte frame allocated %d bytes", len(frame), grew)
	}

	b := testBlock()
	f := make([]float32, b.NumNodes())
	b.Scalars = map[string][]float32{"aa": f, "bb": f}
	good := EncodeBlock(b)
	if _, err := DecodeBlock(good); err != nil {
		t.Fatal(err)
	}
	at := bytes.LastIndex(good, []byte("bb"))
	dup := bytes.Clone(good[:len(good)-4])
	copy(dup[at:], "aa") // the second field repeats the first's name
	if _, err := DecodeBlock(sealed(dup)); err == nil {
		t.Fatal("a repeated field name decoded")
	}
}

// TestDeviceRereadsCorruptFetchOnce: one corrupted read recovers via a
// single re-read (counted, and charged the wasted latency); the block
// arrives intact.
func TestDeviceRereadsCorruptFetchOnce(t *testing.T) {
	v := vclock.NewVirtual()
	d := NewDevice("disk", &GenBackend{Desc: dataset.Tiny()}, v, time.Millisecond, 0, 1)
	fetches := 0
	d.CorruptFault = func(grid.BlockID) bool {
		fetches++
		return fetches == 1
	}
	v.Go(func() {
		b, _, err := d.Load(grid.BlockID{Dataset: "tiny", Step: 0, Block: 1})
		if err != nil {
			t.Errorf("recoverable corruption failed the load: %v", err)
			return
		}
		if b.ID.Block != 1 {
			t.Errorf("re-read returned the wrong block: %+v", b.ID)
		}
	})
	v.Wait()
	st := d.Stats()
	if st.CorruptReads != 1 || st.Rereads != 1 || st.Errors != 0 {
		t.Fatalf("stats = %+v, want CorruptReads=1 Rereads=1", st)
	}
	// The wasted transfer costs at least one extra latency charge.
	if v.Now() < 2*time.Millisecond {
		t.Errorf("elapsed %v, want ≥ 2ms (original + re-read latency)", v.Now())
	}
}

// TestDevicePersistentCorruptionFails: when the re-read is corrupt too, the
// load fails with ErrCorrupt instead of retrying forever.
func TestDevicePersistentCorruptionFails(t *testing.T) {
	v := vclock.NewVirtual()
	d := NewDevice("disk", &GenBackend{Desc: dataset.Tiny()}, v, time.Millisecond, 0, 1)
	d.CorruptFault = func(grid.BlockID) bool { return true }
	v.Go(func() {
		_, _, err := d.Load(grid.BlockID{Dataset: "tiny", Step: 0, Block: 1})
		if !errors.Is(err, ErrCorrupt) {
			t.Errorf("err = %v, want ErrCorrupt", err)
		}
	})
	v.Wait()
	st := d.Stats()
	if st.CorruptReads != 2 || st.Rereads != 1 {
		t.Fatalf("stats = %+v, want CorruptReads=2 Rereads=1 (re-read once, then fail)", st)
	}
	if st.Errors == 0 {
		t.Error("failed load not counted as a device error")
	}
}
