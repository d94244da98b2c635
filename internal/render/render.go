// Package render is a minimal software rasterizer used by the examples to
// turn extracted geometry into images (the stand-in for the paper's VR
// renderings, Figures 4 and 5): orthographic projection, z-buffer, flat
// Lambertian shading, PPM output. It exists so a headless reproduction can
// still *show* streamed isosurfaces arriving; it is not part of the
// measured system.
package render

import (
	"fmt"
	"io"
	"math"

	"viracocha/internal/mathx"
	"viracocha/internal/mesh"
)

// Image is an RGB framebuffer with a z-buffer.
type Image struct {
	W, H  int
	pix   []uint8 // 3 per pixel
	depth []float64
}

// NewImage returns a black image of the given size.
func NewImage(w, h int) *Image {
	img := &Image{W: w, H: h, pix: make([]uint8, 3*w*h), depth: make([]float64, w*h)}
	for i := range img.depth {
		img.depth[i] = math.Inf(1)
	}
	return img
}

// set writes a pixel if it wins the depth test.
func (im *Image) set(x, y int, z float64, r, g, b uint8) {
	if x < 0 || x >= im.W || y < 0 || y >= im.H {
		return
	}
	idx := y*im.W + x
	if z >= im.depth[idx] {
		return
	}
	im.depth[idx] = z
	im.pix[3*idx] = r
	im.pix[3*idx+1] = g
	im.pix[3*idx+2] = b
}

// WritePPM writes the image in binary PPM (P6) format.
func (im *Image) WritePPM(w io.Writer) error {
	if _, err := fmt.Fprintf(w, "P6\n%d %d\n255\n", im.W, im.H); err != nil {
		return err
	}
	_, err := w.Write(im.pix)
	return err
}

// Camera is an orthographic view: looking along Dir with Up roughly up,
// framing the given world-space box.
type Camera struct {
	Dir, Up mathx.Vec3
	// Frame is the world-space box to fit into the viewport.
	Frame [2]mathx.Vec3
}

// LookAt builds a camera framing the box from the given direction.
func LookAt(dir mathx.Vec3, boxMin, boxMax mathx.Vec3) Camera {
	up := mathx.Vec3{Z: 1}
	if math.Abs(dir.Normalize().Z) > 0.9 {
		up = mathx.Vec3{Y: 1}
	}
	return Camera{Dir: dir.Normalize(), Up: up, Frame: [2]mathx.Vec3{boxMin, boxMax}}
}

// basis returns the camera's right/up/forward unit vectors.
func (c Camera) basis() (right, up, fwd mathx.Vec3) {
	fwd = c.Dir.Normalize()
	right = c.Up.Cross(fwd).Normalize()
	if right.Norm() == 0 {
		right = mathx.Vec3{X: 1}
	}
	up = fwd.Cross(right).Normalize()
	return
}

// Color is an RGB triple in [0,1].
type Color struct{ R, G, B float64 }

// Draw rasterizes the mesh into the image with flat per-triangle Lambertian
// shading of the given base color; the light shines along the view
// direction so silhouettes darken naturally.
func Draw(im *Image, cam Camera, m *mesh.Mesh, base Color) {
	right, up, fwd := cam.basis()
	center := cam.Frame[0].Add(cam.Frame[1]).Scale(0.5)
	half := cam.Frame[1].Sub(cam.Frame[0]).Norm() / 2
	if half == 0 {
		half = 1
	}
	scale := 0.48 * math.Min(float64(im.W), float64(im.H)) / half
	project := func(p mathx.Vec3) (float64, float64, float64) {
		d := p.Sub(center)
		x := float64(im.W)/2 + d.Dot(right)*scale
		y := float64(im.H)/2 - d.Dot(up)*scale
		z := d.Dot(fwd)
		return x, y, z
	}
	for t := 0; t+2 < len(m.Indices); t += 3 {
		a := m.Vertex(int(m.Indices[t]))
		b := m.Vertex(int(m.Indices[t+1]))
		c := m.Vertex(int(m.Indices[t+2]))
		n := b.Sub(a).Cross(c.Sub(a)).Normalize()
		// Two-sided shading: light along the viewing direction.
		lambert := math.Abs(n.Dot(fwd))
		shade := 0.25 + 0.75*lambert
		r8 := uint8(mathx.Clamp(base.R*shade, 0, 1) * 255)
		g8 := uint8(mathx.Clamp(base.G*shade, 0, 1) * 255)
		b8 := uint8(mathx.Clamp(base.B*shade, 0, 1) * 255)
		ax, ay, az := project(a)
		bx, by, bz := project(b)
		cx, cy, cz := project(c)
		fillTriangle(im, ax, ay, az, bx, by, bz, cx, cy, cz, r8, g8, b8)
	}
}

// DrawPoints renders a point cloud (pathline vertices) as small squares,
// colored by the per-vertex Values ramp when present.
func DrawPoints(im *Image, cam Camera, m *mesh.Mesh, base Color) {
	right, up, fwd := cam.basis()
	center := cam.Frame[0].Add(cam.Frame[1]).Scale(0.5)
	half := cam.Frame[1].Sub(cam.Frame[0]).Norm() / 2
	if half == 0 {
		half = 1
	}
	scale := 0.48 * math.Min(float64(im.W), float64(im.H)) / half
	var vmin, vmax float64 = 0, 1
	if len(m.Values) > 0 {
		vmin, vmax = math.Inf(1), math.Inf(-1)
		for _, v := range m.Values {
			vmin = math.Min(vmin, float64(v))
			vmax = math.Max(vmax, float64(v))
		}
		if vmax == vmin {
			vmax = vmin + 1
		}
	}
	for i := 0; i < m.NumVertices(); i++ {
		p := m.Vertex(i)
		d := p.Sub(center)
		x := int(float64(im.W)/2 + d.Dot(right)*scale)
		y := int(float64(im.H)/2 - d.Dot(up)*scale)
		z := d.Dot(fwd)
		col := base
		if len(m.Values) > 0 {
			f := (float64(m.Values[i]) - vmin) / (vmax - vmin)
			col = Color{R: f, G: 0.2 + 0.5*(1-f), B: 1 - f} // blue→red ramp
		}
		r8 := uint8(mathx.Clamp(col.R, 0, 1) * 255)
		g8 := uint8(mathx.Clamp(col.G, 0, 1) * 255)
		b8 := uint8(mathx.Clamp(col.B, 0, 1) * 255)
		for dy := -1; dy <= 1; dy++ {
			for dx := -1; dx <= 1; dx++ {
				im.set(x+dx, y+dy, z, r8, g8, b8)
			}
		}
	}
}

// fillTriangle rasterizes one triangle with barycentric depth interpolation.
func fillTriangle(im *Image, ax, ay, az, bx, by, bz, cx, cy, cz float64, r, g, b uint8) {
	minX := int(math.Floor(math.Min(ax, math.Min(bx, cx))))
	maxX := int(math.Ceil(math.Max(ax, math.Max(bx, cx))))
	minY := int(math.Floor(math.Min(ay, math.Min(by, cy))))
	maxY := int(math.Ceil(math.Max(ay, math.Max(by, cy))))
	if minX < 0 {
		minX = 0
	}
	if minY < 0 {
		minY = 0
	}
	if maxX >= im.W {
		maxX = im.W - 1
	}
	if maxY >= im.H {
		maxY = im.H - 1
	}
	area := (bx-ax)*(cy-ay) - (by-ay)*(cx-ax)
	if math.Abs(area) < 1e-12 {
		return
	}
	inv := 1 / area
	for y := minY; y <= maxY; y++ {
		for x := minX; x <= maxX; x++ {
			px, py := float64(x)+0.5, float64(y)+0.5
			w0 := ((bx-px)*(cy-py) - (by-py)*(cx-px)) * inv
			w1 := ((cx-px)*(ay-py) - (cy-py)*(ax-px)) * inv
			w2 := 1 - w0 - w1
			if w0 < 0 || w1 < 0 || w2 < 0 {
				continue
			}
			z := w0*az + w1*bz + w2*cz
			im.set(x, y, z, r, g, b)
		}
	}
}
