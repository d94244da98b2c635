// Package storage provides the secondary-storage substrate: a binary on-disk
// block format, pluggable backends (real directories, in-memory stores, and
// on-demand synthetic generation), and Device, a clock-aware wrapper that
// charges seek latency and transfer time so that the DMS experiments see
// the I/O costs of the paper's NFS-plus-local-disk environment.
package storage

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"math"
	"sort"

	"viracocha/internal/grid"
)

const blockMagic = 0x5652424b // "VRBK"

// blockCRCTable is the CRC32-C (Castagnoli) polynomial table protecting the
// block format against bit rot and torn writes.
var blockCRCTable = crc32.MakeTable(crc32.Castagnoli)

// ErrCorrupt reports a block whose trailing CRC32-C did not match its
// contents — the medium returned data, but not the data that was written.
// Devices re-read once on it before failing the load.
var ErrCorrupt = errors.New("storage: block checksum mismatch")

// EncodeBlock serializes a block to the little-endian Viracocha block
// format: magic, ID, dims, then coordinates, velocity and named scalars.
func EncodeBlock(b *grid.Block) []byte {
	names := make([]string, 0, len(b.Scalars))
	for n := range b.Scalars {
		names = append(names, n)
	}
	sort.Strings(names)

	size := 4 + 4 + len(b.ID.Dataset) + 8 + 12 + 4 + 4
	for _, n := range names {
		size += 4 + len(n) + 4*b.NumNodes()
	}
	size += 4 * (len(b.Points) + len(b.Velocity))
	buf := make([]byte, 0, size)

	var s4 [4]byte
	put32 := func(v uint32) {
		binary.LittleEndian.PutUint32(s4[:], v)
		buf = append(buf, s4[:]...)
	}
	putStr := func(s string) {
		put32(uint32(len(s)))
		buf = append(buf, s...)
	}
	putFloats := func(fs []float32) {
		for _, f := range fs {
			put32(math.Float32bits(f))
		}
	}

	put32(blockMagic)
	putStr(b.ID.Dataset)
	put32(uint32(b.ID.Step))
	put32(uint32(b.ID.Block))
	put32(uint32(b.NI))
	put32(uint32(b.NJ))
	put32(uint32(b.NK))
	putFloats(b.Points)
	putFloats(b.Velocity)
	put32(uint32(len(names)))
	for _, n := range names {
		putStr(n)
		putFloats(b.Scalars[n])
	}
	put32(crc32.Checksum(buf, blockCRCTable))
	return buf
}

// DecodeBlock parses the format written by EncodeBlock, first verifying the
// trailing CRC32-C so corruption surfaces as ErrCorrupt rather than as a
// misparse. The block shares no memory with data: every value is copied out.
func DecodeBlock(data []byte) (*grid.Block, error) {
	return decodeBlock(data, "")
}

// decodeBlock is DecodeBlock; a stored data-set name equal to dataset is
// shared with it instead of copied out.
func decodeBlock(data []byte, dataset string) (*grid.Block, error) {
	if len(data) < 8 {
		return nil, errors.New("storage: truncated block")
	}
	body := data[:len(data)-4]
	want := binary.LittleEndian.Uint32(data[len(data)-4:])
	if crc32.Checksum(body, blockCRCTable) != want {
		return nil, ErrCorrupt
	}
	data = body
	off := 0
	get32 := func() (uint32, error) {
		if off+4 > len(data) {
			return 0, errors.New("storage: truncated block")
		}
		v := binary.LittleEndian.Uint32(data[off:])
		off += 4
		return v, nil
	}
	// getStr reads a length-prefixed string, returning like when the
	// bytes spell it and a copy otherwise.
	getStr := func(like string) (string, error) {
		n, err := get32()
		if err != nil {
			return "", err
		}
		if off+int(n) > len(data) || n > 1<<20 {
			return "", errors.New("storage: truncated or oversized string")
		}
		s := like
		if raw := data[off : off+int(n)]; string(raw) != like {
			s = string(raw)
		}
		off += int(n)
		return s, nil
	}
	magic, err := get32()
	if err != nil {
		return nil, err
	}
	if magic != blockMagic {
		return nil, fmt.Errorf("storage: bad magic %#x", magic)
	}
	dsName, err := getStr(dataset)
	if err != nil {
		return nil, err
	}
	step, err := get32()
	if err != nil {
		return nil, err
	}
	blk, err := get32()
	if err != nil {
		return nil, err
	}
	ni, err := get32()
	if err != nil {
		return nil, err
	}
	nj, err := get32()
	if err != nil {
		return nil, err
	}
	nk, err := get32()
	if err != nil {
		return nil, err
	}
	if ni < 2 || nj < 2 || nk < 2 || uint64(ni)*uint64(nj)*uint64(nk) > 1<<28 {
		return nil, fmt.Errorf("storage: implausible dims %d×%d×%d", ni, nj, nk)
	}
	// Points and velocity take 24 bytes a node: dims the body cannot hold
	// fail before they size an allocation.
	if uint64(len(data)-off) < 24*uint64(ni)*uint64(nj)*uint64(nk) {
		return nil, errors.New("storage: truncated block")
	}
	b := grid.NewBlock(grid.BlockID{Dataset: dsName, Step: int(step), Block: int(blk)}, int(ni), int(nj), int(nk))
	getFloats := func(dst []float32) error {
		for i := range dst {
			v, err := get32()
			if err != nil {
				return err
			}
			dst[i] = math.Float32frombits(v)
		}
		return nil
	}
	if err := getFloats(b.Points); err != nil {
		return nil, err
	}
	if err := getFloats(b.Velocity); err != nil {
		return nil, err
	}
	nf, err := get32()
	if err != nil {
		return nil, err
	}
	if nf > 64 {
		return nil, fmt.Errorf("storage: implausible field count %d", nf)
	}
	prev := ""
	for i := uint32(0); i < nf; i++ {
		name, err := getStr("")
		if err != nil {
			return nil, err
		}
		// The encoder writes the fields sorted by name, so a repeated or
		// out-of-order name is not a block it wrote.
		if i > 0 && name <= prev {
			return nil, fmt.Errorf("storage: field %q after %q", name, prev)
		}
		prev = name
		f := b.EnsureScalar(name)
		if err := getFloats(f); err != nil {
			return nil, err
		}
	}
	if off != len(data) {
		return nil, fmt.Errorf("storage: %d trailing bytes", len(data)-off)
	}
	return b, nil
}
