// Command viracocha-client is a minimal visualization front-end: it submits
// one post-processing command to a viracocha-server, reports streamed
// partial results as they arrive, and writes the merged geometry as a PPM
// rendering and/or a binary mesh file.
//
//	viracocha-client -addr localhost:7447 -cmd iso.viewer \
//	    -p dataset=engine -p iso=500 -p workers=4 -p ex=-0.2 -o iso.ppm
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"strings"
	"time"

	"viracocha"
	"viracocha/internal/mathx"
	"viracocha/internal/render"
	"viracocha/internal/session"
)

type paramList []string

func (p *paramList) String() string     { return strings.Join(*p, ",") }
func (p *paramList) Set(v string) error { *p = append(*p, v); return nil }

func main() {
	var (
		addr    = flag.String("addr", "localhost:7447", "server address")
		cmd     = flag.String("cmd", "iso.dataman", "command to run")
		out     = flag.String("o", "", "write a PPM rendering of the result here")
		meshOut = flag.String("mesh", "", "write the merged mesh (binary) here")
		points  = flag.Bool("points", false, "render as points (pathline output)")
		script  = flag.String("session", "", "replay a recorded session script (JSON) instead of -cmd")
		cancel  = flag.Duration("cancel-after", 0, "cancel the command after this duration (0 = never)")
		retries = flag.Int("retries", 0, "dial/reconnect attempts on connection failure (0 = fail fast)")
		olRetry = flag.Int("overload-retries", 3, "resubmissions after a server overloaded (or draining) rejection, honoring its retry-after hint (0 = fail fast)")
		resume  = flag.Bool("resume", false, "durable session: reconnect automatically on connection loss and resume in-flight streams exactly where they stopped")
		drain   = flag.Bool("drain", false, "admin: ask the server to drain (graceful shutdown) and wait for the acknowledgement instead of running a command")
		roll    = flag.Bool("roll", false, "admin: ask the server for a rolling worker restart and wait for the acknowledgement instead of running a command")
		ps      paramList
	)
	flag.Var(&ps, "p", "command parameter key=value (repeatable; e.g. redistribute=1 for block-granular recovery, retries=N for the request's recovery budget, default 2)")
	flag.Parse()

	if *script != "" {
		if err := replaySession(*addr, *script); err != nil {
			log.Fatal(err)
		}
		return
	}

	params := map[string]string{}
	for _, kv := range ps {
		k, v, ok := strings.Cut(kv, "=")
		if !ok {
			log.Fatalf("bad parameter %q, want key=value", kv)
		}
		params[k] = v
	}

	rc, err := dial(*addr, *retries)
	if err != nil {
		log.Fatal(err)
	}
	defer rc.Close()
	rc.OverloadRetries = *olRetry
	rc.Resume = *resume

	if *drain {
		start := time.Now()
		if err := rc.Drain(); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("server drained in %v\n", time.Since(start).Round(time.Millisecond))
		return
	}

	if *roll {
		start := time.Now()
		if err := rc.Roll(); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("worker pool rolled in %v\n", time.Since(start).Round(time.Millisecond))
		return
	}

	start := time.Now()
	first := time.Duration(0)
	n := 0
	if *cancel > 0 {
		go func() {
			time.Sleep(*cancel)
			fmt.Println("cancelling...")
			rc.Cancel()
		}()
	}
	m, err := rc.Run(*cmd, params, func(seq int, part *viracocha.Mesh) {
		if n == 0 {
			first = time.Since(start)
		}
		n++
		fmt.Printf("partial %3d: %6d triangles after %v\n", seq, part.NumTriangles(), time.Since(start).Round(time.Millisecond))
	})
	if err != nil {
		log.Fatal(err)
	}
	total := time.Since(start)
	if n > 0 {
		fmt.Printf("first partial after %v (latency), %d partials\n", first.Round(time.Millisecond), n)
	}
	fmt.Printf("done: %d triangles, %d vertices in %v\n", m.NumTriangles(), m.NumVertices(), total.Round(time.Millisecond))

	if *meshOut != "" {
		if err := os.WriteFile(*meshOut, m.EncodeBinary(), 0o644); err != nil {
			log.Fatal(err)
		}
		fmt.Println("mesh written to", *meshOut)
	}
	if *out != "" {
		img := render.NewImage(800, 600)
		box := m.Bounds()
		cam := render.LookAt(mathx.Vec3{X: -1, Y: -0.4, Z: -0.4}, box.Min, box.Max)
		if *points {
			render.DrawPoints(img, cam, m, render.Color{R: 0.9, G: 0.8, B: 0.3})
		} else {
			render.Draw(img, cam, m, render.Color{R: 0.35, G: 0.6, B: 0.9})
		}
		f, err := os.Create(*out)
		if err != nil {
			log.Fatal(err)
		}
		defer f.Close()
		if err := img.WritePPM(f); err != nil {
			log.Fatal(err)
		}
		fmt.Println("rendering written to", *out)
	}
}

// dial connects fail-fast or, with retries > 0, with capped-backoff re-dial
// (the returned client then also reconnects after a broken connection).
func dial(addr string, retries int) (*viracocha.RemoteClient, error) {
	if retries > 0 {
		return viracocha.DialRetry(addr, retries, 100*time.Millisecond)
	}
	return viracocha.Dial(addr)
}

// replaySession runs a recorded exploration script against the server,
// reporting per-interaction feedback times.
func replaySession(addr, path string) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	script, err := session.Decode(data)
	if err != nil {
		return err
	}
	rc, err := viracocha.Dial(addr)
	if err != nil {
		return err
	}
	defer rc.Close()
	fmt.Printf("replaying %q: %d interactions\n", script.Name, len(script.Steps))
	for i, st := range script.Steps {
		time.Sleep(st.Think)
		start := time.Now()
		var first time.Duration
		n := 0
		m, err := rc.Run(st.Command, st.Params, func(int, *viracocha.Mesh) {
			if n == 0 {
				first = time.Since(start)
			}
			n++
		})
		total := time.Since(start)
		if first == 0 {
			first = total
		}
		label := st.Label
		if label == "" {
			label = st.Command
		}
		if err != nil {
			fmt.Printf("%2d  %-20s ERROR: %v\n", i+1, label, err)
			continue
		}
		fmt.Printf("%2d  %-20s first %8v  total %8v  %7d triangles\n",
			i+1, label, first.Round(time.Millisecond), total.Round(time.Millisecond), m.NumTriangles())
	}
	return nil
}
