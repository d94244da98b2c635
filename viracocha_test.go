package viracocha

import (
	"net"
	"strings"
	"sync"
	"testing"
	"time"

	"viracocha/internal/core"
	"viracocha/internal/dataset"
	"viracocha/internal/mesh"
	"viracocha/internal/storage"
)

func TestSessionQuickstart(t *testing.T) {
	sys := New(Options{Workers: 2})
	if _, err := sys.AddDataset("tiny", 1); err != nil {
		t.Fatal(err)
	}
	var res *RunResult
	sys.Session(func(c *Client) {
		var err error
		res, err = c.Run("iso.dataman", Params("dataset", "tiny", "workers", "2", "iso", "0.5"))
		if err != nil {
			t.Error(err)
		}
	})
	if res == nil || res.Merged.NumTriangles() == 0 {
		t.Fatal("no geometry extracted through the public API")
	}
	if _, ok := sys.Stats(res.ReqID); !ok {
		t.Fatal("stats missing after session")
	}
}

func TestVirtualTimeSession(t *testing.T) {
	sys := New(Options{Workers: 2, VirtualTime: true, StorageLatency: time.Millisecond})
	if _, err := sys.AddDataset("tiny", 1); err != nil {
		t.Fatal(err)
	}
	var res *RunResult
	sys.Session(func(c *Client) {
		res, _ = c.Run("iso.dataman", Params("dataset", "tiny", "workers", "2", "iso", "0.5"))
	})
	st, ok := sys.Stats(res.ReqID)
	if !ok {
		t.Fatal("stats missing")
	}
	// A millisecond per block read: reads must appear in virtual time.
	if st.Probes.Read <= 0 {
		t.Fatalf("virtual read time = %v, want > 0", st.Probes.Read)
	}
}

func TestVirtualSessionStartsAtZero(t *testing.T) {
	// Default FT: heartbeat loops sleep from Start on. They must not run the
	// virtual clock ahead of a client the driver has not spawned yet.
	sys := New(Options{Workers: 2, VirtualTime: true})
	if _, err := sys.AddDataset("tiny", 1); err != nil {
		t.Fatal(err)
	}
	sys.Start()
	time.Sleep(20 * time.Millisecond)
	start := time.Duration(-1)
	sys.Session(func(c *Client) { start = sys.Clock.Now() })
	if start != 0 {
		t.Fatalf("client actor started at virtual %v, want 0", start)
	}
}

func TestAddDatasetErrors(t *testing.T) {
	sys := New(Options{Workers: 1})
	if _, err := sys.AddDataset("nope", 1); err == nil {
		t.Fatal("unknown dataset accepted")
	}
	sys.Start()
	if _, err := sys.AddDataset("tiny", 1); err == nil {
		t.Fatal("AddDataset after Start accepted")
	}
}

func TestUnknownDatasetInByName(t *testing.T) {
	sys := New(Options{Workers: 1})
	sys.AddDataset("tiny", 1)
	var err error
	sys.Session(func(c *Client) {
		_, err = c.Run("iso.dataman", Params("dataset", "ghost"))
	})
	if err == nil || !strings.Contains(err.Error(), "ghost") {
		t.Fatalf("err = %v", err)
	}
}

func TestPrefetcherOption(t *testing.T) {
	sys := New(Options{Workers: 1, Prefetcher: "markov"})
	if _, err := sys.AddDataset("tiny", 1); err != nil {
		t.Fatal(err)
	}
	sys.Session(func(c *Client) {
		if _, err := c.Run("pathlines.dataman", Params(
			"dataset", "tiny", "seeds", "4", "stepdt", "1", "t1", "0.5",
			"seedbox", "0.3,0.3,0.2,1.7,0.7,0.4")); err != nil {
			t.Error(err)
		}
	})
}

func TestServeAndDial(t *testing.T) {
	sys := New(Options{Workers: 2})
	if _, err := sys.AddDataset("tiny", 1); err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	go sys.Serve(ln)

	rc, err := Dial(ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer rc.Close()

	var mu sync.Mutex
	partials := 0
	m, err := rc.Run("iso.viewer", Params(
		"dataset", "tiny", "workers", "2", "iso", "0.5",
		"ex", "-5", "ey", "0.5", "ez", "0.5", "granularity", "1",
	), func(seq int, part *Mesh) {
		mu.Lock()
		partials++
		mu.Unlock()
	})
	if err != nil {
		t.Fatal(err)
	}
	if m.NumTriangles() == 0 {
		t.Fatal("no triangles over TCP")
	}
	if partials == 0 {
		t.Fatal("no streamed partials observed over TCP")
	}

	// A second request on the same connection must work.
	m2, err := rc.Run("iso.dataman", Params(
		"dataset", "tiny", "workers", "2", "iso", "0.5"), nil)
	if err != nil {
		t.Fatal(err)
	}
	if m2.NumTriangles() == 0 {
		t.Fatal("second remote request returned nothing")
	}
}

// TestRetryDelayDoublesToCap pins the client's one backoff rule: 100ms
// when unset, doubled per attempt, capped (5s when unset), and a jittered
// delay adds at most half again.
func TestRetryDelayDoublesToCap(t *testing.T) {
	ms := time.Millisecond
	for _, c := range []struct {
		base, limit time.Duration
		attempt     int
		want        time.Duration
	}{
		{0, 0, 0, 100 * ms},
		{0, 0, 3, 800 * ms},
		{0, 0, 60, 5 * time.Second},
		{20 * ms, 50 * ms, 2, 50 * ms},
		{7 * time.Second, 0, 0, 5 * time.Second},
	} {
		if got := retryDelay(c.base, c.limit, c.attempt, false); got != c.want {
			t.Errorf("retryDelay(%v, %v, %d) = %v, want %v", c.base, c.limit, c.attempt, got, c.want)
		}
	}
	for i := 0; i < 100; i++ {
		if d := retryDelay(0, 0, 1, true); d < 200*ms || d > 300*ms {
			t.Fatalf("jittered delay %v outside [200ms, 300ms]", d)
		}
	}
}

func TestServeRejectsVirtualClock(t *testing.T) {
	sys := New(Options{VirtualTime: true})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	if err := sys.Serve(ln); err == nil {
		t.Fatal("Serve accepted a virtual-clock system")
	}
}

func TestRemoteErrorPropagates(t *testing.T) {
	sys := New(Options{Workers: 1})
	sys.AddDataset("tiny", 1)
	ln, _ := net.Listen("tcp", "127.0.0.1:0")
	defer ln.Close()
	go sys.Serve(ln)
	rc, err := Dial(ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer rc.Close()
	if _, err := rc.Run("no.such.command", Params("dataset", "tiny"), nil); err == nil {
		t.Fatal("expected remote error")
	}
}

func TestParamsHelper(t *testing.T) {
	p := Params("a", "1", "b", "2", "dangling")
	if len(p) != 2 || p["a"] != "1" || p["b"] != "2" {
		t.Fatalf("Params = %v", p)
	}
}

func TestCustomCommandRegistration(t *testing.T) {
	sys := New(Options{Workers: 1})
	sys.AddDataset("tiny", 1)
	sys.Register(noopCommand{})
	var err error
	sys.Session(func(c *Client) {
		_, err = c.Run("test.noop", Params("dataset", "tiny"))
	})
	if err != nil {
		t.Fatalf("custom command failed: %v", err)
	}
}

type noopCommand struct{}

func (noopCommand) Name() string { return "test.noop" }
func (noopCommand) Run(ctx *core.Ctx) (*mesh.Mesh, error) {
	return &mesh.Mesh{}, nil
}

func TestDiskBackedDatasetEndToEnd(t *testing.T) {
	// viracocha-gen path: write tiny to disk, host it from the directory,
	// and extract through the public API.
	dir := t.TempDir()
	be := &storage.DirBackend{Root: dir}
	d, err := dataset.ByName("tiny")
	if err != nil {
		t.Fatal(err)
	}
	for s := 0; s < d.Steps; s++ {
		for b := 0; b < d.Blocks; b++ {
			if err := be.Put(d.Generate(s, b)); err != nil {
				t.Fatal(err)
			}
		}
	}
	sys := New(Options{Workers: 2})
	if err := sys.AddDatasetDir(d, dir); err != nil {
		t.Fatal(err)
	}
	var res *RunResult
	sys.Session(func(c *Client) {
		res, err = c.Run("iso.dataman", Params("dataset", "tiny", "workers", "2", "iso", "0.5"))
	})
	if err != nil || res.Merged.NumTriangles() == 0 {
		t.Fatalf("disk-backed extraction failed: %v, %d triangles", err, res.Merged.NumTriangles())
	}
}

func TestRemoteCancelMidStream(t *testing.T) {
	// Served as viracocha-server serves: the stream window parks the rank on
	// the viewer's acks, which is what lets the cancel in mid-stream on a
	// single P.
	ov := DefaultOverloadConfig()
	sys := New(Options{Workers: 1, Overload: &ov})
	if _, err := sys.AddDataset("engine", 2); err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	go sys.Serve(ln)
	rc, err := Dial(ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer rc.Close()
	// Cancel as soon as the first streamed fragment arrives: the user has
	// judged the threshold useless (§5).
	cancelled := false
	_, err = rc.Run("vortex.streamed", Params(
		"dataset", "engine", "workers", "1", "lambda2", "-1000", "cellbatch", "32",
	), func(seq int, m *Mesh) {
		if !cancelled {
			cancelled = true
			rc.Cancel()
		}
	})
	if err == nil || !strings.Contains(err.Error(), "cancel") {
		t.Fatalf("expected cancellation error, got %v", err)
	}
}
