// Streamingiso demonstrates the paper's headline interaction (§6.3, Fig. 4):
// a view-dependent isosurface streamed over TCP. The example starts a server
// in-process, connects a client, and renders a frame every time a streamed
// packet arrives — the front-to-back arrival order means the first frames
// already show the surface nearest the viewer.
package main

import (
	"fmt"
	"log"
	"net"
	"os"
	"time"

	"viracocha"
	"viracocha/internal/mathx"
	"viracocha/internal/render"
)

func main() {
	// Back end: what viracocha-server runs (OBL prefetching, the overload
	// defaults), plus the server's pace rule (-fault pace:engine@3ms) so
	// streaming visibly outpaces the full computation.
	overload := viracocha.DefaultOverloadConfig()
	sys := viracocha.New(viracocha.Options{
		Workers:    4,
		Prefetcher: "obl",
		Faults:     new(viracocha.FaultPlan).Pace("engine", 3*time.Millisecond),
		Overload:   &overload,
	})
	if _, err := sys.AddDataset("engine", 2); err != nil {
		log.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		log.Fatal(err)
	}
	defer ln.Close()
	go sys.Serve(ln)

	// Front end: the visualization client.
	rc, err := viracocha.Dial(ln.Addr().String())
	if err != nil {
		log.Fatal(err)
	}
	defer rc.Close()

	eye := mathx.Vec3{X: -0.2, Y: 0, Z: 0.05}
	img := render.NewImage(800, 600)
	var box [2]mathx.Vec3
	frames := 0
	start := time.Now()

	m, err := rc.Run("iso.viewer", viracocha.Params(
		"dataset", "engine", "workers", "4",
		"field", "pressure", "iso", "500",
		"ex", "-0.2", "ey", "0", "ez", "0.05",
		"granularity", "2000",
	), func(seq int, part *viracocha.Mesh) {
		// Progressive display: draw each packet into the same framebuffer
		// the moment it arrives.
		if frames == 0 {
			b := part.Bounds()
			// Frame the whole engine cylinder generously from the first
			// packet's surroundings.
			c := b.Center()
			box[0] = c.Add(mathx.Vec3{X: -0.06, Y: -0.06, Z: -0.06})
			box[1] = c.Add(mathx.Vec3{X: 0.06, Y: 0.06, Z: 0.06})
			fmt.Printf("first packet after %v — first image possible now\n",
				time.Since(start).Round(time.Millisecond))
		}
		cam := render.LookAt(mathx.Vec3{}.Sub(eye), box[0], box[1])
		render.Draw(img, cam, part, render.Color{R: 0.4, G: 0.7, B: 1})
		frames++
		if frames == 1 || frames == 4 {
			writeFrame(img, fmt.Sprintf("stream-frame-%02d.ppm", frames))
		}
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("final surface: %d triangles after %v, %d streamed packets\n",
		m.NumTriangles(), time.Since(start).Round(time.Millisecond), frames)
	writeFrame(img, "stream-final.ppm")
}

func writeFrame(img *render.Image, name string) {
	f, err := os.Create(name)
	if err != nil {
		log.Fatal(err)
	}
	defer f.Close()
	if err := img.WritePPM(f); err != nil {
		log.Fatal(err)
	}
	fmt.Println("wrote", name)
}
