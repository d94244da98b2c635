package mesh

import (
	"bytes"
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"viracocha/internal/mathx"
)

func quad() *Mesh {
	// Unit square in the z=0 plane, two triangles, duplicated diagonal.
	m := &Mesh{}
	a := m.AddVertex(mathx.Vec3{X: 0, Y: 0})
	b := m.AddVertex(mathx.Vec3{X: 1, Y: 0})
	c := m.AddVertex(mathx.Vec3{X: 1, Y: 1})
	d := m.AddVertex(mathx.Vec3{X: 0, Y: 1})
	m.AddTriangle(a, b, c)
	m.AddTriangle(a, c, d)
	return m
}

func TestCounts(t *testing.T) {
	m := quad()
	if m.NumVertices() != 4 || m.NumTriangles() != 2 {
		t.Fatalf("verts=%d tris=%d", m.NumVertices(), m.NumTriangles())
	}
}

func TestArea(t *testing.T) {
	if a := quad().Area(); !mathx.AlmostEqual(a, 1, 1e-9) {
		t.Fatalf("Area = %v, want 1", a)
	}
}

func TestBounds(t *testing.T) {
	b := quad().Bounds()
	if b.Min != (mathx.Vec3{}) || b.Max != (mathx.Vec3{X: 1, Y: 1}) {
		t.Fatalf("Bounds = %+v", b)
	}
}

func TestComputeNormalsPlanar(t *testing.T) {
	m := quad()
	m.ComputeNormals()
	if len(m.Normals) != 12 {
		t.Fatalf("normals len = %d", len(m.Normals))
	}
	for i := 0; i < 4; i++ {
		nz := m.Normals[3*i+2]
		if !mathx.AlmostEqual(float64(nz), 1, 1e-6) {
			t.Fatalf("normal[%d].z = %v, want 1", i, nz)
		}
	}
}

func TestAppendOffsetsIndices(t *testing.T) {
	m := quad()
	n := quad()
	m.Append(n)
	if m.NumVertices() != 8 || m.NumTriangles() != 4 {
		t.Fatalf("after append: verts=%d tris=%d", m.NumVertices(), m.NumTriangles())
	}
	for _, ix := range m.Indices[6:] {
		if ix < 4 {
			t.Fatalf("appended index %d not offset", ix)
		}
	}
	if !mathx.AlmostEqual(m.Area(), 2, 1e-9) {
		t.Fatalf("Area after append = %v", m.Area())
	}
}

func TestAppendIntoEmptyKeepsAttributes(t *testing.T) {
	src := quad()
	src.ComputeNormals()
	src.Values = []float32{1, 2, 3, 4}
	var dst Mesh
	dst.Append(src)
	if len(dst.Normals) != 12 || len(dst.Values) != 4 {
		t.Fatal("attributes lost when appending into empty mesh")
	}
}

func TestAppendDropsPartialAttributes(t *testing.T) {
	a := quad()
	a.ComputeNormals()
	b := quad() // no normals
	a.Append(b)
	if a.Normals != nil {
		t.Fatal("partial normals must be dropped, not kept inconsistent")
	}
}

func TestAppendNilAndEmpty(t *testing.T) {
	m := quad()
	m.Append(nil)
	m.Append(&Mesh{})
	if m.NumVertices() != 4 {
		t.Fatal("appending nil/empty changed the mesh")
	}
}

func TestWeldMergesSharedVertices(t *testing.T) {
	// Two triangles sharing an edge but with duplicated vertices.
	m := &Mesh{}
	m.AddVertex(mathx.Vec3{X: 0, Y: 0})
	m.AddVertex(mathx.Vec3{X: 1, Y: 0})
	m.AddVertex(mathx.Vec3{X: 0, Y: 1})
	m.AddVertex(mathx.Vec3{X: 1, Y: 0}) // dup of 1
	m.AddVertex(mathx.Vec3{X: 0, Y: 1}) // dup of 2
	m.AddVertex(mathx.Vec3{X: 1, Y: 1})
	m.AddTriangle(0, 1, 2)
	m.AddTriangle(3, 5, 4)
	removed := m.Weld(1e-6)
	if removed != 2 {
		t.Fatalf("removed = %d, want 2", removed)
	}
	if m.NumVertices() != 4 || m.NumTriangles() != 2 {
		t.Fatalf("after weld: verts=%d tris=%d", m.NumVertices(), m.NumTriangles())
	}
}

func TestWeldDropsDegenerateTriangles(t *testing.T) {
	m := &Mesh{}
	m.AddVertex(mathx.Vec3{X: 0, Y: 0})
	m.AddVertex(mathx.Vec3{X: 1e-12, Y: 0}) // same as 0 after quantization
	m.AddVertex(mathx.Vec3{X: 0, Y: 1})
	m.AddTriangle(0, 1, 2)
	m.Weld(1e-6)
	if m.NumTriangles() != 0 {
		t.Fatalf("degenerate triangle survived weld: %d", m.NumTriangles())
	}
}

func TestWeldPreservesArea(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		m := &Mesh{}
		// Build a random fan of well-separated triangles.
		for i := 0; i < 20; i++ {
			base := mathx.Vec3{X: float64(i) * 10}
			a := m.AddVertex(base)
			b := m.AddVertex(base.Add(mathx.Vec3{X: 1 + rng.Float64()}))
			c := m.AddVertex(base.Add(mathx.Vec3{Y: 1 + rng.Float64()}))
			m.AddTriangle(a, b, c)
		}
		before := m.Area()
		m.Weld(1e-9)
		return mathx.AlmostEqual(before, m.Area(), 1e-9)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestEncodeDecodeRoundTrip(t *testing.T) {
	m := quad()
	m.ComputeNormals()
	m.Values = []float32{0.5, 1.5, 2.5, 3.5}
	data := m.EncodeBinary()
	if int64(len(data)) != m.SizeBytes() {
		t.Fatalf("SizeBytes=%d, encoded=%d", m.SizeBytes(), len(data))
	}
	got, err := DecodeBinary(data)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.EncodeBinary(), data) {
		t.Fatal("round trip not stable")
	}
	if got.NumVertices() != 4 || got.NumTriangles() != 2 {
		t.Fatalf("decoded verts=%d tris=%d", got.NumVertices(), got.NumTriangles())
	}
	if len(got.Normals) != 12 || len(got.Values) != 4 {
		t.Fatal("decoded attributes missing")
	}
}

func TestEncodeDecodeNoAttributes(t *testing.T) {
	m := quad()
	got, err := DecodeBinary(m.EncodeBinary())
	if err != nil {
		t.Fatal(err)
	}
	if got.Normals != nil || got.Values != nil {
		t.Fatal("phantom attributes decoded")
	}
}

func TestDecodeRejectsCorruptInput(t *testing.T) {
	m := quad()
	data := m.EncodeBinary()
	cases := map[string][]byte{
		"empty":     {},
		"short":     data[:10],
		"truncated": data[:len(data)-4],
		"badmagic":  append([]byte{9, 9, 9, 9}, data[4:]...),
	}
	for name, d := range cases {
		if _, err := DecodeBinary(d); err == nil {
			t.Errorf("%s: expected error", name)
		}
	}
}

func TestDecodeRejectsOutOfRangeIndex(t *testing.T) {
	m := quad()
	m.Indices[0] = 99 // out of range
	if _, err := DecodeBinary(m.EncodeBinary()); err == nil {
		t.Fatal("expected index range error")
	}
}

func TestEncodeDecodeProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		m := &Mesh{}
		nv := 3 + rng.Intn(50)
		for i := 0; i < nv; i++ {
			m.AddVertex(mathx.Vec3{X: rng.NormFloat64(), Y: rng.NormFloat64(), Z: rng.NormFloat64()})
		}
		for i := 0; i < rng.Intn(40); i++ {
			m.AddTriangle(uint32(rng.Intn(nv)), uint32(rng.Intn(nv)), uint32(rng.Intn(nv)))
		}
		if rng.Intn(2) == 0 {
			m.ComputeNormals()
		}
		got, err := DecodeBinary(m.EncodeBinary())
		if err != nil {
			return false
		}
		return bytes.Equal(got.EncodeBinary(), m.EncodeBinary())
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestNormalsAreUnitOrZero(t *testing.T) {
	m := quad()
	m.Append(quad())
	m.ComputeNormals()
	for i := 0; i < m.NumVertices(); i++ {
		n := math.Sqrt(float64(m.Normals[3*i]*m.Normals[3*i] +
			m.Normals[3*i+1]*m.Normals[3*i+1] +
			m.Normals[3*i+2]*m.Normals[3*i+2]))
		if n > 1e-9 && !mathx.AlmostEqual(n, 1, 1e-5) {
			t.Fatalf("normal %d has length %v", i, n)
		}
	}
}

// soup returns a triangle-soup mesh with many duplicated vertices (each
// lattice quad emits its own four corners).
func soup(n int) *Mesh {
	m := &Mesh{}
	for j := 0; j < n; j++ {
		for i := 0; i < n; i++ {
			x0, y0 := float64(i)/float64(n), float64(j)/float64(n)
			x1, y1 := float64(i+1)/float64(n), float64(j+1)/float64(n)
			a := m.AddVertex(mathx.Vec3{X: x0, Y: y0})
			b := m.AddVertex(mathx.Vec3{X: x1, Y: y0})
			c := m.AddVertex(mathx.Vec3{X: x1, Y: y1})
			d := m.AddVertex(mathx.Vec3{X: x0, Y: y1})
			m.AddTriangle(a, b, c)
			m.AddTriangle(a, c, d)
		}
	}
	return m
}

func TestWeldIntoMatchesWeld(t *testing.T) {
	a, b := soup(8), soup(8)
	var wb WeldBuffer
	ra := a.Weld(1e-9)
	rb := b.WeldInto(1e-9, &wb)
	if ra != rb {
		t.Fatalf("WeldInto removed %d, Weld removed %d", rb, ra)
	}
	if a.NumVertices() != b.NumVertices() || a.NumTriangles() != b.NumTriangles() {
		t.Fatalf("WeldInto result differs: %d/%d vs %d/%d",
			b.NumVertices(), b.NumTriangles(), a.NumVertices(), a.NumTriangles())
	}
	// The buffer is reusable: welding an already-welded mesh with the warm
	// scratch removes nothing and allocates nothing.
	allocs := testing.AllocsPerRun(10, func() {
		if b.WeldInto(1e-9, &wb) != 0 {
			t.Fatal("second weld removed vertices")
		}
	})
	if allocs != 0 {
		t.Fatalf("warm WeldInto allocates %v times per run, want 0", allocs)
	}
}

func TestEncodeBinaryAllocs(t *testing.T) {
	m := soup(8)
	m.ComputeNormals()
	if allocs := testing.AllocsPerRun(10, func() { m.EncodeBinary() }); allocs != 1 {
		t.Fatalf("EncodeBinary allocates %v times per run, want exactly 1", allocs)
	}
}

func TestAppendBinaryReusesBuffer(t *testing.T) {
	m := soup(8)
	m.ComputeNormals()
	want := m.EncodeBinary()
	buf := make([]byte, 0, m.SizeBytes())
	got := m.AppendBinary(buf)
	if !bytes.Equal(got, want) {
		t.Fatal("AppendBinary output differs from EncodeBinary")
	}
	allocs := testing.AllocsPerRun(10, func() { m.AppendBinary(buf[:0]) })
	if allocs != 0 {
		t.Fatalf("AppendBinary into a fitting buffer allocates %v times per run, want 0", allocs)
	}
	// Appending after a prefix keeps the prefix intact.
	pre := append([]byte("hdr:"), m.AppendBinary(nil)...)
	if string(pre[:4]) != "hdr:" || !bytes.Equal(pre[4:], want) {
		t.Fatal("AppendBinary clobbered the prefix")
	}
}

func TestAppendSteadyStateAllocs(t *testing.T) {
	a, b := soup(6), soup(6)
	a.ComputeNormals()
	b.ComputeNormals()
	var dst Mesh
	dst.Append(a)
	dst.Append(b) // establish capacity for two parts
	allocs := testing.AllocsPerRun(10, func() {
		dst.Reset()
		dst.Append(a)
		dst.Append(b)
	})
	if allocs != 0 {
		t.Fatalf("steady-state Append allocates %v times per run, want 0", allocs)
	}
	if dst.NumVertices() != a.NumVertices()+b.NumVertices() {
		t.Fatalf("append dropped vertices: %d", dst.NumVertices())
	}
}

func TestResetKeepsCapacity(t *testing.T) {
	m := soup(6)
	m.ComputeNormals()
	cp, ci := cap(m.Positions), cap(m.Indices)
	m.Reset()
	if m.NumVertices() != 0 || m.NumTriangles() != 0 || len(m.Normals) != 0 {
		t.Fatal("Reset left data behind")
	}
	if cap(m.Positions) != cp || cap(m.Indices) != ci {
		t.Fatal("Reset released capacity")
	}
}

func TestAcquireReleaseRoundTrip(t *testing.T) {
	m := Acquire()
	m.AddVertex(mathx.Vec3{X: 1})
	m.AddVertex(mathx.Vec3{Y: 1})
	m.AddVertex(mathx.Vec3{Z: 1})
	m.AddTriangle(0, 1, 2)
	Release(m)
	n := Acquire()
	defer Release(n)
	if n.NumVertices() != 0 || n.NumTriangles() != 0 {
		t.Fatalf("Acquire returned a dirty mesh: %d verts, %d tris", n.NumVertices(), n.NumTriangles())
	}
	Release(nil) // must not panic
}

// randomPart is a random mesh for the AppendAll property: nil or vertex-less
// now and then, normals and values each present or absent.
func randomPart(rng *rand.Rand) *Mesh {
	switch rng.Intn(8) {
	case 0:
		return nil
	case 1:
		return &Mesh{}
	}
	m := &Mesh{}
	nv := 1 + rng.Intn(12)
	for i := 0; i < nv; i++ {
		m.AddVertex(mathx.Vec3{X: rng.NormFloat64(), Y: rng.NormFloat64(), Z: rng.NormFloat64()})
	}
	for i := rng.Intn(10); i > 0; i-- {
		m.AddTriangle(uint32(rng.Intn(nv)), uint32(rng.Intn(nv)), uint32(rng.Intn(nv)))
	}
	if rng.Intn(3) > 0 {
		m.ComputeNormals()
	}
	if rng.Intn(3) > 0 {
		for i := 0; i < nv; i++ {
			m.Values = append(m.Values, rng.Float32())
		}
	}
	return m
}

// TestAppendAllEqualsAppendFold: AppendAll is the fold of Append bit for bit
// — including every way the fold drops an attribute that some part lacks, nil
// and vertex-less parts, and a receiver that already holds geometry — and
// leaves each array exactly as long as it allocated it.
func TestAppendAllEqualsAppendFold(t *testing.T) {
	same := func(a, b []float32) bool {
		if len(a) != len(b) {
			return false
		}
		for i := range a {
			if math.Float32bits(a[i]) != math.Float32bits(b[i]) {
				return false
			}
		}
		return true
	}
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		fold, all := &Mesh{}, &Mesh{}
		if rng.Intn(2) == 0 { // a non-empty receiver, spare capacity included
			for _, m := range []*Mesh{fold, all} {
				r := randomPart(rand.New(rand.NewSource(seed + 1)))
				m.Append(r)
				m.Append(r)
			}
		}
		parts := make([]*Mesh, rng.Intn(7))
		grows := false
		for i := range parts {
			parts[i] = randomPart(rng)
			grows = grows || parts[i] != nil && parts[i].NumVertices() > 0
		}
		for _, p := range parts {
			fold.Append(p)
		}
		all.AppendAll(parts)
		if !same(all.Positions, fold.Positions) || !same(all.Normals, fold.Normals) ||
			!same(all.Values, fold.Values) || !bytes.Equal(all.EncodeBinary(), fold.EncodeBinary()) {
			t.Logf("seed %d: AppendAll differs from the fold of Append", seed)
			return false
		}
		if grows && (cap(all.Positions) != len(all.Positions) || cap(all.Normals) != len(all.Normals) ||
			cap(all.Values) != len(all.Values) || cap(all.Indices) != len(all.Indices)) {
			t.Logf("seed %d: an array has spare capacity after AppendAll", seed)
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}
