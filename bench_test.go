// Benchmarks: one target per paper table/figure (driving the same harness
// as cmd/viracocha-bench at reduced quick scale and reporting the key
// virtual-time metric), plus microbenchmarks of the algorithmic substrates.
// Run with:
//
//	go test -bench=. -benchmem
//
// Full-scale paper reproductions are produced by `go run ./cmd/viracocha-bench`.
package viracocha

import (
	"bytes"
	"fmt"
	"strconv"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"viracocha/internal/bench"
	"viracocha/internal/comm"
	"viracocha/internal/core"
	"viracocha/internal/dataset"
	"viracocha/internal/dms"
	"viracocha/internal/grid"
	"viracocha/internal/iso"
	"viracocha/internal/loader"
	"viracocha/internal/mathx"
	"viracocha/internal/mesh"
	"viracocha/internal/prefetch"
	"viracocha/internal/storage"
	"viracocha/internal/vclock"
	"viracocha/internal/vortex"
)

var quick = bench.Options{Scale: 1, Quick: true}

// lastSeconds extracts the last row's last numeric cell — the headline
// virtual-time number of a figure — for ReportMetric.
func lastSeconds(tbl *bench.Table) float64 {
	row := tbl.Rows[len(tbl.Rows)-1]
	v, _ := strconv.ParseFloat(strings.TrimSuffix(row[len(row)-1], "%"), 64)
	return v
}

func benchExperiment(b *testing.B, id string) {
	e, ok := bench.ByID(id)
	if !ok {
		b.Fatalf("unknown experiment %s", id)
	}
	var metric float64
	for i := 0; i < b.N; i++ {
		metric = lastSeconds(e.Run(quick))
	}
	b.ReportMetric(metric, "virtual_s")
}

func BenchmarkTable1Datasets(b *testing.B)      { benchExperiment(b, "table1") }
func BenchmarkFig6EngineIso(b *testing.B)       { benchExperiment(b, "fig6") }
func BenchmarkFig7PropfanIso(b *testing.B)      { benchExperiment(b, "fig7") }
func BenchmarkFig8IsoLatency(b *testing.B)      { benchExperiment(b, "fig8") }
func BenchmarkFig9EngineVortex(b *testing.B)    { benchExperiment(b, "fig9") }
func BenchmarkFig10PropfanVortex(b *testing.B)  { benchExperiment(b, "fig10") }
func BenchmarkFig11VortexPrefetch(b *testing.B) { benchExperiment(b, "fig11") }
func BenchmarkFig12VortexLatency(b *testing.B)  { benchExperiment(b, "fig12") }
func BenchmarkFig13Pathlines(b *testing.B)      { benchExperiment(b, "fig13") }
func BenchmarkFig14MarkovPrefetch(b *testing.B) { benchExperiment(b, "fig14") }
func BenchmarkFig15ComponentSplit(b *testing.B) { benchExperiment(b, "fig15") }

func BenchmarkAblationReplacement(b *testing.B) { benchExperiment(b, "ablation-replacement") }
func BenchmarkAblationPrefetch(b *testing.B)    { benchExperiment(b, "ablation-prefetch") }
func BenchmarkAblationLoader(b *testing.B)      { benchExperiment(b, "ablation-loader") }
func BenchmarkAblationGranularity(b *testing.B) { benchExperiment(b, "ablation-granularity") }

// ---------------------------------------------------------------------------
// Microbenchmarks of the substrates (real wall time, not virtual).

func BenchmarkMarchingTetrahedra(b *testing.B) {
	blk := dataset.Engine().WithScale(2).Generate(0, 0)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var m mesh.Mesh
		iso.ExtractBlock(blk, "pressure", 500, &m)
	}
	b.ReportMetric(float64(blk.NumCells()), "cells/op")
}

func BenchmarkLambda2Field(b *testing.B) {
	blk := dataset.Propfan().WithScale(2).Generate(0, 100)
	vals := make([]float32, blk.NumNodes())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		vortex.ComputeInto(blk, vals)
	}
	b.ReportMetric(float64(blk.NumNodes()), "nodes/op")
}

func BenchmarkPointLocation(b *testing.B) {
	blk := dataset.Engine().WithScale(2).Generate(0, 5)
	box := blk.Bounds()
	c := box.Center()
	var loc grid.CellLoc
	hint := &loc
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, ok := blk.Locate(c, hint); !ok {
			b.Fatal("locate failed")
		}
	}
}

func BenchmarkBlockEncodeDecode(b *testing.B) {
	blk := dataset.Engine().WithScale(2).Generate(0, 0)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		data := storage.EncodeBlock(blk)
		if _, err := storage.DecodeBlock(data); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkDMSColdStep is the DMS miss path of the cold time sweep: one
// propfan scale-1 step (144 block files) read through a real-clock, unpriced
// proxy whose caches were just dropped, with a second proxy registered as a
// peer and no system prefetching. An op is the 144 misses.
func BenchmarkDMSColdStep(b *testing.B) {
	desc := dataset.Propfan()
	be := &storage.DirBackend{Root: b.TempDir()}
	ids := make([]grid.BlockID, desc.Blocks)
	for i := range ids {
		blk := desc.Generate(0, i)
		if err := be.Put(blk); err != nil {
			b.Fatal(err)
		}
		ids[i] = blk.ID
	}
	clk := vclock.NewReal()
	cfg := dms.DefaultConfig()
	cfg.Prices = dms.Prices{}
	srv := dms.NewServer(clk, cfg, &loader.DeviceSource{Dev: storage.NewDevice("dir", be, clk, 0, 0, 2)})
	p := srv.NewProxy("n0", prefetch.None{})
	srv.NewProxy("n1", prefetch.None{})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p.DropCaches()
		for _, id := range ids {
			if _, err := p.Get(id); err != nil {
				b.Fatal(err)
			}
		}
	}
}

func BenchmarkVirtualClockHandoff(b *testing.B) {
	// Cost of one produce/consume round trip through the virtual clock.
	for i := 0; i < b.N; i++ {
		v := vclock.NewVirtual()
		q := vclock.NewQueue[int](v)
		v.Go(func() {
			for j := 0; j < 100; j++ {
				q.PushOpen(j)
			}
			q.Close()
		})
		v.Go(func() {
			for {
				if _, ok := q.Pop(); !ok {
					return
				}
			}
		})
		v.Wait()
	}
}

func BenchmarkMeshWeld(b *testing.B) {
	blk := dataset.Engine().WithScale(2).Generate(0, 0)
	var src mesh.Mesh
	iso.ExtractBlock(blk, "pressure", 500, &src)
	data := src.EncodeBinary()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m, _ := mesh.DecodeBinary(data)
		m.Weld(1e-7)
	}
}

// BenchmarkExtractRangeReuse is the steady-state form of the extraction hot
// path as the commands run it: pooled extractor scratch, a reused target
// mesh, and a pooled λ2-style value array. This is the headline kernel
// benchmark for the welded extraction work.
func BenchmarkExtractRangeReuse(b *testing.B) {
	blk := dataset.Engine().WithScale(2).Generate(0, 0)
	vals := blk.Scalars["pressure"]
	r := grid.CellRange{Hi: [3]int{blk.NI - 1, blk.NJ - 1, blk.NK - 1}}
	var m mesh.Mesh
	iso.ExtractRange(blk, vals, 500, r, &m) // warm pool and mesh capacity
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.Reset()
		iso.ExtractRange(blk, vals, 500, r, &m)
	}
	b.ReportMetric(float64(blk.NumCells()), "cells/op")
}

// sweepBlocks pre-generates one step of the engine set at the given scale
// once, so the SliderSweep benchmarks time only the warm sweep.
func sweepBlocks(scale int) []*grid.Block {
	ds := dataset.Engine().WithScale(scale)
	blks := make([]*grid.Block, ds.Blocks)
	for i := range blks {
		blks[i] = ds.Generate(0, i)
	}
	return blks
}

// sliderIsos are the slider positions of the whole-block sweep: dense
// mid-range surfaces plus the sparse shells near the top of the pressure
// range, as a drag across the slider passes through.
var sliderIsos = []float64{350, 450, 550, 650, 750, 850}

// BenchmarkStreamedVortexScan is the lazy λ2 scan as vortex.streamed runs
// it on vortex_timesweep_cold's data, single-threaded: over the 144 blocks
// of one propfan scale-1 step at λ2 = −1, a lazy evaluator and a held
// extractor per block, every cell ensured and extracted in turn, the packet
// restarted every 256 active cells (the command's default cellbatch).
func BenchmarkStreamedVortexScan(b *testing.B) {
	ds := dataset.Propfan().WithScale(1)
	blks := make([]*grid.Block, ds.Blocks)
	for i := range blks {
		blks[i] = ds.Generate(0, i)
	}
	const thresh, batch = -1.0, 256
	nodes := 0
	b.ResetTimer()
	for n := 0; n < b.N; n++ {
		nodes = 0
		for _, blk := range blks {
			lazy := vortex.NewLazy(blk)
			part := mesh.Acquire()
			ex := iso.NewExtractor(blk, part)
			active := 0
			for ck := 0; ck < blk.NK-1; ck++ {
				for cj := 0; cj < blk.NJ-1; cj++ {
					for ci := 0; ci < blk.NI-1; ci++ {
						lazy.EnsureCell(ci, cj, ck)
						if ex.Cell(lazy.Vals(), thresh, ci, cj, ck) > 0 {
							if active++; active >= batch {
								active = 0
								part.Reset()
								ex.Rebind(part)
							}
						}
					}
				}
			}
			nodes += lazy.ComputedNodes()
			ex.Close()
			mesh.Release(part)
			lazy.Release()
		}
	}
	b.ReportMetric(float64(nodes), "nodes/op")
}

// BenchmarkStreamedFramesRaw is the packets-per-request comm counter: one
// streamed vortex request at fan-out 4, reporting how many packets the stream
// carried and how many fabric messages carried them (one per packet).
func BenchmarkStreamedFramesRaw(b *testing.B) {
	var frames, packets float64
	for i := 0; i < b.N; i++ {
		e := bench.NewEnv(bench.EnvConfig{DS: dataset.Engine().WithScale(2), Workers: 4, Prefetcher: "obl"})
		var reqID uint64
		e.Session(func(cl *core.Client) {
			res, err := cl.Run("vortex.streamed", bench.Params(
				"dataset", "engine", "workers", "4", "lambda2", "-1000",
				"cellbatch", "32"))
			if err != nil {
				b.Error(err)
				return
			}
			reqID = res.ReqID
		})
		if b.Failed() {
			b.FailNow()
		}
		st, _ := e.RT.Sched.Stats(reqID)
		frames = float64(st.Frames)
		packets = float64(st.Streams)
	}
	b.ReportMetric(frames, "frames/req")
	b.ReportMetric(packets, "packets/req")
}

// benchSliderStorm is the N-session slider storm: N concurrent viewers all
// land on the same isovalue. With memoization off every session pays its own
// extraction, so summed extraction time grows ~linearly in N; with it on, one
// producer extracts while the other N-1 sessions attach as multicast
// subscribers, so server extraction time stays ~flat from N=1 to N=64. The
// memo variant finishes with a warm repeat request that must add zero
// extraction work. Every session's mesh is checked bit-identical within the
// run (the cross-path identity against a memo-off run is pinned by
// TestMemoDurableResume and the core memo tests).
func benchSliderStorm(b *testing.B, n int, memo bool) {
	memoV := "0"
	if memo {
		memoV = "1"
	}
	params := bench.Params(
		"dataset", "engine", "workers", "4", "iso", "500",
		"ex", "-5", "ey", "0.5", "ez", "0.5", "granularity", "1",
		"redistribute", "1", "memo", memoV)
	var sessionSecs, extractSecs, extractions float64
	for i := 0; i < b.N; i++ {
		e := bench.NewEnv(bench.EnvConfig{DS: dataset.Engine().WithScale(2), Workers: 4, Prefetcher: "obl"})
		meshes := make([][]byte, n)
		errs := make([]error, n)
		var remaining atomic.Int32
		remaining.Store(int32(n))
		e.V.Go(func() {
			storm := vclock.NewGate(e.V)
			cls := make([]*core.Client, n)
			for j := range cls {
				cls[j] = core.NewClient(e.RT)
			}
			for j := range cls {
				j := j
				e.V.Go(func() {
					res, err := cls[j].Run("iso.viewer", params)
					errs[j] = err
					if err == nil {
						meshes[j] = res.Merged.EncodeBinary()
					}
					if remaining.Add(-1) == 0 {
						storm.Open()
					}
				})
			}
			storm.Wait()
			if memo {
				// Warm repeat: a later identical session must be served
				// entirely from the result cache.
				before := producerCount(e.RT)
				if _, err := core.NewClient(e.RT).Run("iso.viewer", params); err != nil {
					errs[0] = err
				} else if after := producerCount(e.RT); after != before {
					errs[0] = fmt.Errorf("warm repeat ran %d extra extractions", after-before)
				}
			}
			e.RT.Shutdown()
		})
		e.V.Wait()
		for _, err := range errs {
			if err != nil {
				b.Fatal(err)
			}
		}
		for j := 1; j < n; j++ {
			if !bytes.Equal(meshes[j], meshes[0]) {
				b.Fatalf("session %d mesh differs within the storm", j)
			}
		}
		sessionSecs = e.V.Now().Seconds()
		var sum time.Duration
		count := 0
		for _, st := range e.RT.Sched.AllStats() {
			if st.Workers > 0 {
				sum += st.Probes.Compute
				count++
			}
		}
		extractSecs, extractions = sum.Seconds(), float64(count)
	}
	b.ReportMetric(sessionSecs, "virtual_s")
	b.ReportMetric(extractSecs, "extract_s")
	b.ReportMetric(extractions, "extractions")
}

// producerCount counts finished requests that ran a real extraction.
func producerCount(rt *core.Runtime) int {
	n := 0
	for _, st := range rt.Sched.AllStats() {
		if st.Workers > 0 {
			n++
		}
	}
	return n
}

func BenchmarkSliderStormColdN1(b *testing.B)  { benchSliderStorm(b, 1, false) }
func BenchmarkSliderStormColdN4(b *testing.B)  { benchSliderStorm(b, 4, false) }
func BenchmarkSliderStormColdN16(b *testing.B) { benchSliderStorm(b, 16, false) }
func BenchmarkSliderStormColdN64(b *testing.B) { benchSliderStorm(b, 64, false) }
func BenchmarkSliderStormMemoN1(b *testing.B)  { benchSliderStorm(b, 1, true) }
func BenchmarkSliderStormMemoN4(b *testing.B)  { benchSliderStorm(b, 4, true) }
func BenchmarkSliderStormMemoN16(b *testing.B) { benchSliderStorm(b, 16, true) }
func BenchmarkSliderStormMemoN64(b *testing.B) { benchSliderStorm(b, 64, true) }

// BenchmarkSliderSweepScanFull is the wall-time scan kernel for the
// repeated-query workload: every slider position scans every cell of every
// warm block (engine scale 2).
func BenchmarkSliderSweepScanFull(b *testing.B) {
	blks := sweepBlocks(2)
	var m mesh.Mesh
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, v := range sliderIsos {
			for _, blk := range blks {
				r := grid.CellRange{Hi: [3]int{blk.NI - 1, blk.NJ - 1, blk.NK - 1}}
				m.Reset()
				iso.ExtractRange(blk, blk.Scalars["pressure"], v, r, &m)
			}
		}
	}
}

// BenchmarkSliderSweepViewer is the same warm sweep as iso.viewer runs it on
// iso_slider_warm's data (engine scale 3, iso values across 300–700): per
// block, the cached BSP tree's surviving leaves, each scanned by one held
// extractor into a packet that is flushed at the default granularity.
func BenchmarkSliderSweepViewer(b *testing.B) {
	blks := sweepBlocks(3)
	trees := make([]*grid.BSPTree, len(blks))
	for i, blk := range blks {
		trees[i] = grid.BuildBSP(blk, "pressure")
	}
	var isos []float64
	for v := 325.0; v < 700; v += 50 {
		isos = append(isos, v)
	}
	var m mesh.Mesh
	e := iso.NewExtractor(blks[0], &m)
	defer e.Close()
	var eye mathx.Vec3
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, v := range isos {
			for bi, blk := range blks {
				vals := blk.Scalars["pressure"]
				e.Reset(blk, &m)
				trees[bi].VisitFrontToBack(eye, v, func(r grid.CellRange) bool {
					e.Range(vals, v, r)
					if m.NumTriangles() >= 2000 {
						m.Reset()
						e.Rebind(&m)
					}
					return true
				})
			}
		}
	}
}

func BenchmarkMeshEncodeBinary(b *testing.B) {
	blk := dataset.Engine().WithScale(2).Generate(0, 0)
	var m mesh.Mesh
	iso.ExtractBlock(blk, "pressure", 500, &m)
	m.ComputeNormals()
	buf := m.EncodeBinary()
	b.SetBytes(int64(len(buf)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf = m.AppendBinary(buf[:0])
	}
}

// BenchmarkMeshDecodeBinary decodes the partial BenchmarkMeshEncodeBinary
// encodes: what a client pays per streamed packet before the merge.
func BenchmarkMeshDecodeBinary(b *testing.B) {
	blk := dataset.Engine().WithScale(2).Generate(0, 0)
	var m mesh.Mesh
	iso.ExtractBlock(blk, "pressure", 500, &m)
	m.ComputeNormals()
	buf := m.EncodeBinary()
	b.SetBytes(int64(len(buf)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := mesh.DecodeBinary(buf); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkMeshAppend(b *testing.B) {
	blk := dataset.Engine().WithScale(2).Generate(0, 0)
	var part mesh.Mesh
	iso.ExtractBlock(blk, "pressure", 500, &part)
	var dst mesh.Mesh
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		dst.Reset()
		for p := 0; p < 4; p++ {
			dst.Append(&part)
		}
	}
}

// assembleStream is the iso.viewer stream BenchmarkAssembleStream feeds,
// captured once per test binary.
var assembleStream []comm.Message

// BenchmarkAssembleStream is the client's share of a delivered request: one
// captured iso.viewer stream (engine scale 3, two workers, some 47 partials
// and the result) fed through a fresh core.StreamAssembler — every partial
// decoded, the whole merged once when the result arrives.
func BenchmarkAssembleStream(b *testing.B) {
	if assembleStream == nil {
		rc, params := deliverySystem(b, false)
		assembleStream = captureStream(b, rc, "iso.viewer", params)
	}
	var wire int64
	for _, m := range assembleStream {
		wire += int64(len(m.Payload))
	}
	b.SetBytes(wire)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		asm := core.NewStreamAssembler()
		for _, m := range assembleStream {
			if _, _, err := asm.Add(m); err != nil {
				b.Fatal(err)
			}
		}
		if !asm.Done {
			b.Fatal("the captured stream has no final message")
		}
		deliverySink = asm.Merged
	}
	b.ReportMetric(float64(len(assembleStream)), "msgs/op")
}

func BenchmarkComputeNormals(b *testing.B) {
	blk := dataset.Engine().WithScale(2).Generate(0, 0)
	var m mesh.Mesh
	iso.ExtractBlock(blk, "pressure", 500, &m)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.ComputeNormals()
	}
	b.ReportMetric(float64(m.NumTriangles()), "tris/op")
}

func BenchmarkAblationCompression(b *testing.B) { benchExperiment(b, "ablation-compression") }
func BenchmarkAblationCollective(b *testing.B)  { benchExperiment(b, "ablation-collective") }

func BenchmarkAblationDistribution(b *testing.B) { benchExperiment(b, "ablation-distribution") }

func BenchmarkInteractionSession(b *testing.B) { benchExperiment(b, "interaction") }

func BenchmarkAblationProgressive(b *testing.B) { benchExperiment(b, "ablation-progressive") }
