package mesh

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"
	"unsafe"

	"viracocha/internal/mathx"
)

// sameBits reports two meshes equal array by array: the same nil-ness, the
// same length, the same bits (so a NaN equals itself).
func sameBits(a, b *Mesh) bool {
	bits := func(fs []float32) []uint32 {
		if fs == nil {
			return nil
		}
		out := make([]uint32, len(fs))
		for i, f := range fs {
			out[i] = math.Float32bits(f)
		}
		return out
	}
	same := func(x, y []uint32) bool { return (x == nil) == (y == nil) && slices.Equal(x, y) }
	return same(bits(a.Positions), bits(b.Positions)) && same(bits(a.Normals), bits(b.Normals)) &&
		same(bits(a.Values), bits(b.Values)) && same(a.Indices, b.Indices)
}

// refEncode is the wire encoder element by element, as it was before the
// codec copied arrays in bulk: the oracle the bulk and portable paths must
// match byte for byte.
func refEncode(m *Mesh) []byte {
	flags := uint32(0)
	if len(m.Normals) > 0 {
		flags |= 1
	}
	if len(m.Values) > 0 {
		flags |= 2
	}
	buf := make([]byte, m.SizeBytes())
	le := binary.LittleEndian
	le.PutUint32(buf[0:], wireMagic)
	le.PutUint32(buf[4:], uint32(m.NumVertices()))
	le.PutUint32(buf[8:], uint32(len(m.Indices)))
	le.PutUint32(buf[12:], flags)
	off := 16
	for _, fs := range [3][]float32{m.Positions, m.Normals, m.Values} {
		for _, f := range fs {
			le.PutUint32(buf[off:], math.Float32bits(f))
			off += 4
		}
	}
	for _, ix := range m.Indices {
		le.PutUint32(buf[off:], ix)
		off += 4
	}
	return buf
}

// refDecode is the element-by-element decoder the oracle pairs with
// refEncode, every check included.
func refDecode(data []byte) (*Mesh, error) {
	if len(data) < 16 {
		return nil, errors.New("mesh: truncated header")
	}
	get32 := func(off int) uint32 { return binary.LittleEndian.Uint32(data[off:]) }
	if get32(0) != wireMagic {
		return nil, fmt.Errorf("mesh: bad magic %#x", get32(0))
	}
	nv, ni, flags := int(get32(4)), int(get32(8)), get32(12)
	need := 16 + 12*nv + 4*ni
	if flags&1 != 0 {
		need += 12 * nv
	}
	if flags&2 != 0 {
		need += 4 * nv
	}
	if len(data) != need {
		return nil, fmt.Errorf("mesh: size %d, want %d", len(data), need)
	}
	off := 16
	readFloats := func(n int) []float32 {
		if n == 0 {
			return nil
		}
		out := make([]float32, n)
		for i := range out {
			out[i] = math.Float32frombits(get32(off))
			off += 4
		}
		return out
	}
	m := &Mesh{}
	m.Positions = readFloats(3 * nv)
	if flags&1 != 0 {
		m.Normals = readFloats(3 * nv)
	}
	if flags&2 != 0 {
		m.Values = readFloats(nv)
	}
	if ni > 0 {
		m.Indices = make([]uint32, ni)
		for i := range m.Indices {
			ix := get32(off)
			off += 4
			if int(ix) >= nv {
				return nil, fmt.Errorf("mesh: index %d out of range (%d vertices)", ix, nv)
			}
			m.Indices[i] = ix
		}
	}
	return m, nil
}

// codecMesh draws a mesh with the given attribute flags: up to 39 vertices
// (often none) and up to 29 triangles (often none), any float bit pattern,
// NaNs and infinities among them.
func codecMesh(rng *rand.Rand, normals, values bool) *Mesh {
	m := &Mesh{}
	nv := rng.Intn(40)
	if rng.Intn(4) == 0 {
		nv = 0
	}
	float := func() float32 {
		if rng.Intn(8) == 0 {
			return math.Float32frombits(rng.Uint32())
		}
		return float32(rng.NormFloat64())
	}
	for i := 0; i < 3*nv; i++ {
		m.Positions = append(m.Positions, float())
	}
	if normals {
		for i := 0; i < 3*nv; i++ {
			m.Normals = append(m.Normals, float())
		}
	}
	if values {
		for i := 0; i < nv; i++ {
			m.Values = append(m.Values, float())
		}
	}
	if nv > 0 && rng.Intn(4) > 0 {
		for i := 3 * rng.Intn(30); i > 0; i-- {
			m.Indices = append(m.Indices, uint32(rng.Intn(nv)))
		}
	}
	return m
}

// TestCodecMatchesReference: the bulk path (the one a little-endian host
// runs) and the portable path (big-endian hosts) both write the reference's
// bytes, into an empty or a prefixed buffer, and decode them to the mesh the
// reference decodes — every normals/values flag, 0-vertex and 0-triangle
// meshes included.
func TestCodecMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	for i := 0; i < 400; i++ {
		m := codecMesh(rng, i&1 != 0, i&2 != 0)
		want := refEncode(m)
		wantMesh, err := refDecode(want)
		if err != nil {
			t.Fatalf("mesh %d: the reference rejects its own encoding: %v", i, err)
		}
		for _, bulk := range []bool{true, false} {
			if got := m.appendBinary(nil, bulk); !bytes.Equal(got, want) {
				t.Fatalf("mesh %d, bulk %v: encoding differs from the reference", i, bulk)
			}
			pre := []byte("head")
			if got := m.appendBinary(pre, bulk); string(got[:4]) != "head" || !bytes.Equal(got[4:], want) {
				t.Fatalf("mesh %d, bulk %v: appending after a prefix differs from the reference", i, bulk)
			}
			got, err := decodeBinary(want, bulk)
			if err != nil {
				t.Fatalf("mesh %d, bulk %v: %v", i, bulk, err)
			}
			if !sameBits(got, wantMesh) {
				t.Fatalf("mesh %d, bulk %v: decoded %+v, reference %+v", i, bulk, got, wantMesh)
			}
		}
	}
}

// TestCodecRejectsWhatTheReferenceRejects: truncated, bad-magic, wrong-size
// and out-of-range-index inputs fail on both paths with the reference's
// error, an out-of-range index in any position included, and a decoded mesh
// never aliases its input.
func TestCodecRejectsWhatTheReferenceRejects(t *testing.T) {
	m := quad()
	m.ComputeNormals()
	m.Values = []float32{1, 2, 3, 4}
	data := refEncode(m)
	outOfRange := bytes.Clone(data)
	binary.LittleEndian.PutUint32(outOfRange[len(outOfRange)-8:], 4)
	cases := map[string][]byte{
		"empty":        {},
		"short header": data[:10],
		"truncated":    data[:len(data)-4],
		"one too many": append(bytes.Clone(data), 0, 0, 0, 0),
		"bad magic":    append([]byte{9, 9, 9, 9}, data[4:]...),
		"flags lie":    append(append(bytes.Clone(data[:12]), 1, 0, 0, 0), data[16:]...),
		"out of range": outOfRange,
	}
	for name, in := range cases {
		_, wantErr := refDecode(in)
		if wantErr == nil {
			t.Fatalf("%s: the reference accepts it", name)
		}
		for _, bulk := range []bool{true, false} {
			if _, err := decodeBinary(in, bulk); err == nil || err.Error() != wantErr.Error() {
				t.Errorf("%s, bulk %v: error %v, reference %v", name, bulk, err, wantErr)
			}
		}
	}
	// An index at the vertex count is caught wherever it stands.
	s := soup(2)
	for at := range s.Indices {
		bad := refEncode(s)
		binary.LittleEndian.PutUint32(bad[len(bad)-4*(len(s.Indices)-at):], uint32(s.NumVertices()))
		for _, bulk := range []bool{true, false} {
			if _, err := decodeBinary(bad, bulk); err == nil {
				t.Fatalf("bulk %v: index %d of %d out of range, accepted", bulk, at, len(s.Indices))
			}
		}
	}
	got, err := DecodeBinary(data)
	if err != nil {
		t.Fatal(err)
	}
	clear(data)
	if !bytes.Equal(got.EncodeBinary(), refEncode(m)) {
		t.Fatal("the decoded mesh changed with its input buffer")
	}
}

// attributed is a mesh with every array of the wire format: positions,
// normals, values and indices.
func attributed() *Mesh {
	m := soup(3)
	m.ComputeNormals()
	for i := 0; i < m.NumVertices(); i++ {
		m.Values = append(m.Values, float32(i))
	}
	return m
}

// TestDecodeBinaryOwnsItsBytes: overwriting the input after a decode leaves
// the mesh unchanged on both paths — a client decodes straight out of its
// connection's reused frame buffer, which the next frame overwrites.
func TestDecodeBinaryOwnsItsBytes(t *testing.T) {
	m := attributed()
	want := refEncode(m)
	for _, bulk := range []bool{true, false} {
		data := bytes.Clone(want)
		got, err := decodeBinary(data, bulk)
		if err != nil {
			t.Fatal(err)
		}
		for i := range data {
			data[i] = 0xa5
		}
		if !bytes.Equal(refEncode(got), want) {
			t.Fatalf("bulk %v: the decoded mesh changed with its input buffer", bulk)
		}
	}
}

// TestDecodedArraysAreClipped: the four arrays of a decoded mesh share one
// allocation, each with no capacity past its length, so appending to one
// never changes another.
func TestDecodedArraysAreClipped(t *testing.T) {
	m := attributed()
	want := refEncode(m)
	for _, bulk := range []bool{true, false} {
		got, err := decodeBinary(want, bulk)
		if err != nil {
			t.Fatal(err)
		}
		if cap(got.Positions) != len(got.Positions) || cap(got.Normals) != len(got.Normals) ||
			cap(got.Values) != len(got.Values) || cap(got.Indices) != len(got.Indices) {
			t.Fatalf("bulk %v: a decoded array has capacity past its length", bulk)
		}
		got.Positions = append(got.Positions, 7, 7, 7)
		got.Normals = append(got.Normals, 7, 7, 7)
		got.Values = append(got.Values, 7)
		got.Indices = append(got.Indices, 0, 0, 0)
		trimmed := &Mesh{
			Positions: got.Positions[:len(m.Positions)], Normals: got.Normals[:len(m.Normals)],
			Values: got.Values[:len(m.Values)], Indices: got.Indices[:len(m.Indices)],
		}
		if !bytes.Equal(refEncode(trimmed), want) {
			t.Fatalf("bulk %v: appending to one decoded array changed another", bulk)
		}
	}
}

// TestDecodeSweepBothPaths: every vertex count from 0 to 64 under each
// normals/values flag decodes to the same mesh on the bulk and the portable
// path, and to the reference's, each array four-byte aligned. Under -race,
// checkptr also checks that no typed view reaches past the decoded clone.
func TestDecodeSweepBothPaths(t *testing.T) {
	rng := rand.New(rand.NewSource(51))
	for nv := 0; nv <= 64; nv++ {
		for flags := 0; flags < 4; flags++ {
			m := &Mesh{}
			for i := 0; i < nv; i++ {
				m.AddVertex(mathx.Vec3{X: rng.NormFloat64(), Y: rng.NormFloat64(), Z: rng.NormFloat64()})
				if flags&2 != 0 {
					m.Values = append(m.Values, rng.Float32())
				}
			}
			for i := 0; nv > 0 && i < nv; i++ {
				m.AddTriangle(uint32(rng.Intn(nv)), uint32(rng.Intn(nv)), uint32(rng.Intn(nv)))
			}
			if flags&1 != 0 {
				m.ComputeNormals()
			}
			data := refEncode(m)
			want, err := refDecode(data)
			if err != nil {
				t.Fatalf("%d vertices, flags %d: the reference rejects its own encoding: %v", nv, flags, err)
			}
			bulk, err := decodeBinary(data, true)
			if err != nil {
				t.Fatalf("%d vertices, flags %d, bulk: %v", nv, flags, err)
			}
			portable, err := decodeBinary(data, false)
			if err != nil {
				t.Fatalf("%d vertices, flags %d, portable: %v", nv, flags, err)
			}
			if !sameBits(bulk, portable) || !sameBits(bulk, want) {
				t.Fatalf("%d vertices, flags %d: the bulk and portable decodes differ", nv, flags)
			}
			for _, w := range [][]byte{wordBytes(bulk.Positions), wordBytes(bulk.Normals),
				wordBytes(bulk.Values), wordBytes(bulk.Indices)} {
				if uintptr(unsafe.Pointer(unsafe.SliceData(w)))%4 != 0 {
					t.Fatalf("%d vertices, flags %d: a decoded array is misaligned", nv, flags)
				}
			}
		}
	}
}
