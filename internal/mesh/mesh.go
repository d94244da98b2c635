// Package mesh provides the triangle geometry produced by the extraction
// commands and shipped to the visualization client: an indexed triangle mesh
// with optional per-vertex normals and scalars, vertex welding, and a compact
// binary wire encoding used by the streaming layer.
package mesh

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"slices"
	"sync"
	"unsafe"

	"viracocha/internal/grid"
	"viracocha/internal/mathx"
)

// Mesh is an indexed triangle mesh. Vertex i occupies Positions[3i:3i+3];
// Indices holds three vertex indices per triangle. Normals and Values are
// optional and, when present, parallel to Positions (Values has one float
// per vertex).
type Mesh struct {
	Positions []float32
	Normals   []float32
	Values    []float32
	Indices   []uint32
}

// NumVertices reports the vertex count.
func (m *Mesh) NumVertices() int { return len(m.Positions) / 3 }

// Reset truncates the mesh to empty while keeping the backing arrays, so a
// streaming producer can refill the same allocation packet after packet.
func (m *Mesh) Reset() {
	m.Positions = m.Positions[:0]
	m.Normals = m.Normals[:0]
	m.Values = m.Values[:0]
	m.Indices = m.Indices[:0]
}

// meshPool recycles transient per-packet meshes used by the streaming
// commands; the backing arrays stay warm across packets and requests.
var meshPool = sync.Pool{New: func() any { return new(Mesh) }}

// Acquire returns an empty mesh from the pool. Pair with Release once the
// mesh's contents have been encoded or copied out.
func Acquire() *Mesh { return meshPool.Get().(*Mesh) }

// Release resets m and returns it to the pool. The caller must not retain
// any reference to m or its slices afterwards.
func Release(m *Mesh) {
	if m == nil {
		return
	}
	m.Reset()
	meshPool.Put(m)
}

// NumTriangles reports the triangle count.
func (m *Mesh) NumTriangles() int { return len(m.Indices) / 3 }

// AddVertex appends a vertex and returns its index.
func (m *Mesh) AddVertex(p mathx.Vec3) uint32 {
	m.Positions = append(m.Positions, float32(p.X), float32(p.Y), float32(p.Z))
	return uint32(m.NumVertices() - 1)
}

// AddTriangle appends one triangle by vertex indices.
func (m *Mesh) AddTriangle(a, b, c uint32) {
	m.Indices = append(m.Indices, a, b, c)
}

// Vertex returns the position of vertex i.
func (m *Mesh) Vertex(i int) mathx.Vec3 {
	return mathx.Vec3{
		X: float64(m.Positions[3*i]),
		Y: float64(m.Positions[3*i+1]),
		Z: float64(m.Positions[3*i+2]),
	}
}

// Append concatenates other onto m, offsetting indices. Normals and Values
// are carried over when both meshes have them (or m is empty); otherwise the
// attribute is dropped, since a partial attribute array is worse than none.
func (m *Mesh) Append(other *Mesh) {
	if other == nil || other.NumVertices() == 0 {
		return
	}
	base := uint32(m.NumVertices())
	hadVerts := m.NumVertices() > 0
	m.Positions = append(m.Positions, other.Positions...)
	switch {
	case !hadVerts:
		m.Normals = append(m.Normals[:0], other.Normals...)
		m.Values = append(m.Values[:0], other.Values...)
	default:
		if len(m.Normals) > 0 && len(other.Normals) > 0 {
			m.Normals = append(m.Normals, other.Normals...)
		} else {
			m.Normals = nil
		}
		if len(m.Values) > 0 && len(other.Values) > 0 {
			m.Values = append(m.Values, other.Values...)
		} else {
			m.Values = nil
		}
	}
	at := len(m.Indices)
	m.Indices = slices.Grow(m.Indices, len(other.Indices))[:at+len(other.Indices)]
	rebase(m.Indices[at:], other.Indices, base)
}

// rebase writes src offset by base into dst: one pass that copies and
// offsets at once, four indices a step, and a plain copy at base 0.
func rebase(dst, src []uint32, base uint32) {
	if base == 0 {
		copy(dst, src)
		return
	}
	dst = dst[:len(src)]
	for len(src) >= 4 && len(dst) >= 4 {
		dst[0], dst[1], dst[2], dst[3] = src[0]+base, src[1]+base, src[2]+base, src[3]+base
		dst, src = dst[4:], src[4:]
	}
	for i, ix := range src {
		dst[i] = ix + base
	}
}

// AppendAll is the fold of Append over parts — the same mesh bit for bit —
// with each array first moved into one allocation of its final size (cap ==
// len), where the bare fold regrows it part after part.
func (m *Mesh) AppendAll(parts []*Mesh) {
	var nPos, nNrm, nVal, nIdx int
	for _, p := range parts {
		if p != nil && p.NumVertices() > 0 {
			nPos, nIdx = nPos+len(p.Positions), nIdx+len(p.Indices)
			nNrm, nVal = nNrm+len(p.Normals), nVal+len(p.Values)
		}
	}
	if nPos == 0 {
		return
	}
	m.Positions, m.Indices = sized(m.Positions, nPos), sized(m.Indices, nIdx)
	m.Normals, m.Values = sized(m.Normals, nNrm), sized(m.Values, nVal)
	for _, p := range parts {
		m.Append(p)
	}
}

// sized moves s into an allocation with room for exactly n more elements.
func sized[T any](s []T, n int) []T { return append(make([]T, 0, len(s)+n), s...) }

// Bounds returns the axis-aligned bounding box of the mesh vertices.
func (m *Mesh) Bounds() grid.AABB {
	box := grid.EmptyAABB()
	for i := 0; i < len(m.Positions); i += 3 {
		box.Extend(mathx.Vec3{
			X: float64(m.Positions[i]),
			Y: float64(m.Positions[i+1]),
			Z: float64(m.Positions[i+2]),
		})
	}
	return box
}

// ComputeNormals fills per-vertex normals as the normalized sum of incident
// triangle normals (area weighting falls out of the unnormalized cross
// products).
func (m *Mesh) ComputeNormals() {
	nf := 3 * m.NumVertices()
	if cap(m.Normals) >= nf {
		m.Normals = m.Normals[:nf]
		clear(m.Normals)
	} else {
		m.Normals = make([]float32, nf)
	}
	nrm, pos := m.Normals, m.Positions
	for t := 0; t < len(m.Indices); t += 3 {
		a, b, c := 3*m.Indices[t], 3*m.Indices[t+1], 3*m.Indices[t+2]
		ax, ay, az := float64(pos[a]), float64(pos[a+1]), float64(pos[a+2])
		ux, uy, uz := float64(pos[b])-ax, float64(pos[b+1])-ay, float64(pos[b+2])-az
		vx, vy, vz := float64(pos[c])-ax, float64(pos[c+1])-ay, float64(pos[c+2])-az
		fx := float32(uy*vz - uz*vy)
		fy := float32(uz*vx - ux*vz)
		fz := float32(ux*vy - uy*vx)
		nrm[a], nrm[a+1], nrm[a+2] = nrm[a]+fx, nrm[a+1]+fy, nrm[a+2]+fz
		nrm[b], nrm[b+1], nrm[b+2] = nrm[b]+fx, nrm[b+1]+fy, nrm[b+2]+fz
		nrm[c], nrm[c+1], nrm[c+2] = nrm[c]+fx, nrm[c+1]+fy, nrm[c+2]+fz
	}
	for i := 0; i < len(nrm); i += 3 {
		x, y, z := float64(nrm[i]), float64(nrm[i+1]), float64(nrm[i+2])
		if d := math.Sqrt(x*x + y*y + z*z); d > 0 {
			inv := 1 / d
			nrm[i] = float32(x * inv)
			nrm[i+1] = float32(y * inv)
			nrm[i+2] = float32(z * inv)
		}
	}
}

// weldKey is a vertex position quantized to the weld tolerance.
type weldKey [3]int64

// WeldBuffer holds the reusable scratch of WeldInto — the quantized-position
// map and the remap table — so iterative callers (Decimate, client-side LOD
// loops) stop reallocating them on every pass.
type WeldBuffer struct {
	seen  map[weldKey]uint32
	remap []uint32
}

// Weld merges vertices whose positions coincide after quantization to tol
// and drops degenerate triangles. It returns the number of vertices removed.
// Normals and Values of merged vertices keep the first occurrence.
func (m *Mesh) Weld(tol float64) int { return m.WeldInto(tol, nil) }

// WeldInto is Weld with caller-provided scratch: wb's map and remap slice
// are reused across calls (nil behaves like Weld). The survivors are
// compacted in place — remapped vertex i never moves forward, so no new
// position/normal/value/index arrays are allocated.
func (m *Mesh) WeldInto(tol float64, wb *WeldBuffer) int {
	if tol <= 0 {
		tol = 1e-9
	}
	nv := m.NumVertices()
	var local WeldBuffer
	if wb == nil {
		wb = &local
	}
	if wb.seen == nil {
		wb.seen = make(map[weldKey]uint32, nv)
	} else {
		clear(wb.seen)
	}
	if cap(wb.remap) < nv {
		wb.remap = make([]uint32, nv)
	}
	remap := wb.remap[:nv]
	hasN, hasV := len(m.Normals) > 0, len(m.Values) > 0
	next := uint32(0)
	for i := 0; i < nv; i++ {
		k := weldKey{
			int64(math.Round(float64(m.Positions[3*i]) / tol)),
			int64(math.Round(float64(m.Positions[3*i+1]) / tol)),
			int64(math.Round(float64(m.Positions[3*i+2]) / tol)),
		}
		if j, ok := wb.seen[k]; ok {
			remap[i] = j
			continue
		}
		wb.seen[k] = next
		remap[i] = next
		if int(next) != i {
			copy(m.Positions[3*next:3*next+3], m.Positions[3*i:3*i+3])
			if hasN {
				copy(m.Normals[3*next:3*next+3], m.Normals[3*i:3*i+3])
			}
			if hasV {
				m.Values[next] = m.Values[i]
			}
		}
		next++
	}
	removed := nv - int(next)
	m.Positions = m.Positions[:3*next]
	if hasN {
		m.Normals = m.Normals[:3*next]
	}
	if hasV {
		m.Values = m.Values[:next]
	}
	w := 0
	for t := 0; t+2 < len(m.Indices); t += 3 {
		a, b, c := remap[m.Indices[t]], remap[m.Indices[t+1]], remap[m.Indices[t+2]]
		if a == b || b == c || a == c {
			continue // degenerate after weld
		}
		m.Indices[w], m.Indices[w+1], m.Indices[w+2] = a, b, c
		w += 3
	}
	m.Indices = m.Indices[:w]
	return removed
}

// Area returns the total surface area of the mesh.
func (m *Mesh) Area() float64 {
	area := 0.0
	for t := 0; t < len(m.Indices); t += 3 {
		pa := m.Vertex(int(m.Indices[t]))
		pb := m.Vertex(int(m.Indices[t+1]))
		pc := m.Vertex(int(m.Indices[t+2]))
		area += 0.5 * pb.Sub(pa).Cross(pc.Sub(pa)).Norm()
	}
	return area
}

const wireMagic = 0x56524d48 // "VRMH"

// nativeLE reports a little-endian host, whose float32 and uint32 arrays are
// in memory byte for byte what the wire format carries: the codec copies them
// in bulk there, and element by element elsewhere.
var nativeLE = binary.NativeEndian.Uint16([]byte{1, 0}) == 1

// EncodeBinary serializes the mesh in the little-endian wire format used for
// streaming: magic, counts, then positions, flags-gated normals/values, and
// indices. The buffer is allocated at its exact final size — one
// allocation, no incremental growth.
func (m *Mesh) EncodeBinary() []byte { return m.AppendBinary(nil) }

// AppendBinary appends the wire encoding to dst (growing it at most once)
// and returns the extended slice, so a streaming sender with a retained
// buffer encodes without allocating at all.
func (m *Mesh) AppendBinary(dst []byte) []byte { return m.appendBinary(dst, nativeLE) }

// appendBinary is AppendBinary, each array copied in bulk or, on a host of
// either byte order, element by element.
func (m *Mesh) appendBinary(dst []byte, bulk bool) []byte {
	flags := uint32(0)
	if len(m.Normals) > 0 {
		flags |= 1
	}
	if len(m.Values) > 0 {
		flags |= 2
	}
	size := int(m.SizeBytes())
	at := len(dst)
	if cap(dst)-at < size {
		grown := make([]byte, at+size)
		copy(grown, dst)
		dst = grown
	} else {
		dst = dst[:at+size]
	}
	buf := dst[at:]
	le := binary.LittleEndian
	le.PutUint32(buf[0:], wireMagic)
	le.PutUint32(buf[4:], uint32(m.NumVertices()))
	le.PutUint32(buf[8:], uint32(len(m.Indices)))
	le.PutUint32(buf[12:], flags)
	off := 16
	for _, fs := range [3][]float32{m.Positions, m.Normals, m.Values} {
		off += putWords(buf[off:], fs, bulk)
	}
	putWords(buf[off:], m.Indices, bulk)
	return dst
}

// DecodeBinary parses the wire format produced by EncodeBinary. The mesh
// owns its arrays: they never alias data, so the caller may reuse data at
// once.
func DecodeBinary(data []byte) (*Mesh, error) { return decodeBinary(data, nativeLE) }

// decodeBinary is DecodeBinary. The body after the header is cloned in one
// allocation, and the four arrays are capacity-clipped views of the clone —
// appending to one never reaches another. On a host that does not read the
// wire order natively (bulk false), the clone's words are first rewritten
// in place, element by element.
func decodeBinary(data []byte, bulk bool) (*Mesh, error) {
	if len(data) < 16 {
		return nil, errors.New("mesh: truncated header")
	}
	get32 := func(off int) uint32 { return binary.LittleEndian.Uint32(data[off:]) }
	if get32(0) != wireMagic {
		return nil, fmt.Errorf("mesh: bad magic %#x", get32(0))
	}
	nv := int(get32(4))
	ni := int(get32(8))
	flags := get32(12)
	// Only the flags an encoder writes are accepted: bit 0 (normals) and bit
	// 1 (values), and neither on a mesh without vertices, whose attribute
	// arrays are empty and so encode with flags 0.
	if flags&^3 != 0 {
		return nil, fmt.Errorf("mesh: unknown flags %#x", flags)
	}
	if flags != 0 && nv == 0 {
		return nil, fmt.Errorf("mesh: flags %#x on a mesh without vertices", flags)
	}
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
	// append, not make: the clone is not zero-filled before the copy.
	body := append([]byte(nil), data[16:]...)
	words := wordsOf(body)
	if !bulk {
		for i := range words {
			words[i] = binary.LittleEndian.Uint32(body[4*i:])
		}
	}
	next := func(n int) []uint32 {
		w := words[:n:n]
		words = words[n:]
		return w
	}
	m := &Mesh{}
	m.Positions = floats(next(3 * nv))
	if flags&1 != 0 {
		m.Normals = floats(next(3 * nv))
	}
	if flags&2 != 0 {
		m.Values = floats(next(nv))
	}
	if ni > 0 {
		m.Indices = next(ni)
	}
	// One branch-free reduction checks every index: nv-1-ix is negative for
	// an index out of range, so the OR of them all is. It carries no
	// compare-and-move chain, unlike a max, and takes four indices a step.
	// Only a failure scans again, for the first offender.
	var under int64
	lim, idx := int64(nv)-1, m.Indices
	for len(idx) >= 4 {
		under |= (lim - int64(idx[0])) | (lim - int64(idx[1])) | (lim - int64(idx[2])) | (lim - int64(idx[3]))
		idx = idx[4:]
	}
	for _, ix := range idx {
		under |= lim - int64(ix)
	}
	if under < 0 {
		for _, ix := range m.Indices {
			if int(ix) >= nv {
				return nil, fmt.Errorf("mesh: index %d out of range (%d vertices)", ix, nv)
			}
		}
	}
	return m, nil
}

// word is an array element of the wire format: four bytes, little-endian.
type word interface{ float32 | uint32 }

// wordBytes is the memory of s as bytes — on a little-endian host, its wire
// encoding.
func wordBytes[T word](s []T) []byte {
	return unsafe.Slice((*byte)(unsafe.Pointer(unsafe.SliceData(s))), 4*len(s))
}

// wordBits is the memory of s as uint32s: a float32's IEEE bits on a host
// of either byte order.
func wordBits[T word](s []T) []uint32 {
	return unsafe.Slice((*uint32)(unsafe.Pointer(unsafe.SliceData(s))), len(s))
}

// wordsOf is the memory of b, whose length is a multiple of four and whose
// array the allocator aligned, as uint32s.
func wordsOf(b []byte) []uint32 {
	return unsafe.Slice((*uint32)(unsafe.Pointer(unsafe.SliceData(b))), len(b)/4)
}

// floats is the memory of w as float32s, nil when w is empty.
func floats(w []uint32) []float32 {
	if len(w) == 0 {
		return nil
	}
	return unsafe.Slice((*float32)(unsafe.Pointer(unsafe.SliceData(w))), len(w))
}

// putWords writes s into buf in wire order and returns the bytes written.
func putWords[T word](buf []byte, s []T, bulk bool) int {
	if bulk {
		return copy(buf, wordBytes(s))
	}
	for i, w := range wordBits(s) {
		binary.LittleEndian.PutUint32(buf[4*i:], w)
	}
	return 4 * len(s)
}

// SizeBytes reports the wire size of the mesh, used by the communication
// cost model without forcing an encode.
func (m *Mesh) SizeBytes() int64 {
	return int64(16 + 4*(len(m.Positions)+len(m.Normals)+len(m.Values)+len(m.Indices)))
}
