package render

import (
	"bytes"
	"strings"
	"testing"

	"viracocha/internal/mathx"
	"viracocha/internal/mesh"
)

func triangleMesh() *mesh.Mesh {
	m := &mesh.Mesh{}
	a := m.AddVertex(mathx.Vec3{X: -1, Y: -1})
	b := m.AddVertex(mathx.Vec3{X: 1, Y: -1})
	c := m.AddVertex(mathx.Vec3{X: 0, Y: 1})
	m.AddTriangle(a, b, c)
	return m
}

func countNonBlack(im *Image) int {
	n := 0
	for i := 0; i < len(im.pix); i += 3 {
		if im.pix[i] != 0 || im.pix[i+1] != 0 || im.pix[i+2] != 0 {
			n++
		}
	}
	return n
}

func TestDrawCoversPixels(t *testing.T) {
	im := NewImage(64, 64)
	m := triangleMesh()
	cam := LookAt(mathx.Vec3{Z: -1}, mathx.Vec3{X: -1, Y: -1, Z: -1}, mathx.Vec3{X: 1, Y: 1, Z: 1})
	Draw(im, cam, m, Color{R: 1, G: 0.5, B: 0.2})
	lit := countNonBlack(im)
	// The triangle covers half the frame square, scaled by 0.48² of 64².
	if lit < 200 {
		t.Fatalf("only %d pixels lit", lit)
	}
}

func TestDepthTest(t *testing.T) {
	im := NewImage(32, 32)
	cam := LookAt(mathx.Vec3{Z: -1}, mathx.Vec3{X: -1, Y: -1, Z: -1}, mathx.Vec3{X: 1, Y: 1, Z: 1})
	// The camera looks along -z, so the viewer sits on the +z side: the
	// triangle at z=-0.5 is far, the one at z=+0.5 is near. The near one
	// must win regardless of draw order.
	far := &mesh.Mesh{}
	a := far.AddVertex(mathx.Vec3{X: -1, Y: -1, Z: -0.5})
	b := far.AddVertex(mathx.Vec3{X: 1, Y: -1, Z: -0.5})
	c := far.AddVertex(mathx.Vec3{X: 0, Y: 1, Z: -0.5})
	far.AddTriangle(a, b, c)
	near := &mesh.Mesh{}
	a = near.AddVertex(mathx.Vec3{X: -1, Y: -1, Z: 0.5})
	b = near.AddVertex(mathx.Vec3{X: 1, Y: -1, Z: 0.5})
	c = near.AddVertex(mathx.Vec3{X: 0, Y: 1, Z: 0.5})
	near.AddTriangle(a, b, c)
	Draw(im, cam, far, Color{R: 1})
	centerIdx := 3 * (16*32 + 16)
	red := im.pix[centerIdx]
	Draw(im, cam, near, Color{G: 1})
	if im.pix[centerIdx+1] == 0 {
		t.Fatal("near triangle did not overwrite far one")
	}
	Draw(im, cam, far, Color{R: 1})
	if im.pix[centerIdx] == red && im.pix[centerIdx+1] == 0 {
		t.Fatal("far triangle overwrote nearer geometry")
	}
}

func TestWritePPM(t *testing.T) {
	im := NewImage(4, 2)
	var buf bytes.Buffer
	if err := im.WritePPM(&buf); err != nil {
		t.Fatal(err)
	}
	s := buf.String()
	if !strings.HasPrefix(s, "P6\n4 2\n255\n") {
		t.Fatalf("bad header: %q", s[:12])
	}
	if buf.Len() != len("P6\n4 2\n255\n")+4*2*3 {
		t.Fatalf("payload size = %d", buf.Len())
	}
}

func TestDrawPointsWithValueRamp(t *testing.T) {
	im := NewImage(32, 32)
	m := &mesh.Mesh{}
	m.AddVertex(mathx.Vec3{X: -0.5})
	m.AddVertex(mathx.Vec3{X: 0.5})
	m.Values = []float32{0, 1}
	cam := LookAt(mathx.Vec3{Z: -1}, mathx.Vec3{X: -1, Y: -1, Z: -1}, mathx.Vec3{X: 1, Y: 1, Z: 1})
	DrawPoints(im, cam, m, Color{R: 1, G: 1, B: 1})
	if countNonBlack(im) < 8 {
		t.Fatal("points not drawn")
	}
}

func TestDegenerateTriangleIgnored(t *testing.T) {
	im := NewImage(16, 16)
	m := &mesh.Mesh{}
	a := m.AddVertex(mathx.Vec3{})
	b := m.AddVertex(mathx.Vec3{})
	c := m.AddVertex(mathx.Vec3{})
	m.AddTriangle(a, b, c)
	cam := LookAt(mathx.Vec3{Z: -1}, mathx.Vec3{X: -1, Y: -1, Z: -1}, mathx.Vec3{X: 1, Y: 1, Z: 1})
	Draw(im, cam, m, Color{R: 1}) // must not panic or divide by zero
}

func TestLookAtHandlesVerticalView(t *testing.T) {
	cam := LookAt(mathx.Vec3{Z: 1}, mathx.Vec3{}, mathx.Vec3{X: 1, Y: 1, Z: 1})
	r, u, f := cam.basis()
	if r.Norm() == 0 || u.Norm() == 0 || f.Norm() == 0 {
		t.Fatal("degenerate basis for vertical view")
	}
}
