package bench

import (
	"fmt"
	"math/rand"
	"strconv"
	"time"

	"viracocha/internal/core"
	"viracocha/internal/dataset"
	"viracocha/internal/dms"
	"viracocha/internal/grid"
	"viracocha/internal/loader"
	"viracocha/internal/storage"
	"viracocha/internal/vclock"
)

// AblationReplacement compares the LRU/LFU/FBR replacement policies on an
// explorative-analysis request trace: the user's favourite blocks (the
// region of interest under trial-and-error parameter tweaking, §1.1) are
// re-requested constantly while commands scan through the rest of the data
// set. The trace drives the real DMS cache directly; the cache is far
// smaller than the scan's footprint, the regime in which the paper found
// frequency-based policies, foremost FBR, to produce fewer misses (§4.2).
func AblationReplacement(o Options) *Table {
	o = o.normalize()
	t := &Table{
		ID: "ablation-replacement", Title: "L1 miss rate by replacement policy", PaperRef: "§4.2",
		Columns: []string{"Policy", "Hits", "Misses", "MissRate"},
	}
	ds := dataset.Engine().WithScale(o.Scale)
	requests := explorativeTrace(ds, o)
	blockBytes := ds.Generate(0, 0).SizeBytes()
	capacity := blockBytes * 12 // holds 12 blocks; hot set is 8, scan is 100s
	for _, policy := range []string{"lru", "lfu", "fbr"} {
		cache := dms.NewCache("ablation/"+policy, capacity, dms.NewPolicy(policy))
		names := dms.NewNameServer()
		for _, id := range requests {
			item := names.Resolve(dms.BlockItem(id))
			if _, ok := cache.Get(item); ok {
				continue
			}
			cache.Put(item, ds.Generate(id.Step, id.Block), false)
		}
		st := cache.Stats()
		total := st.Hits + st.Misses
		t.Rows = append(t.Rows, []string{
			policy,
			fmt.Sprintf("%d", st.Hits),
			fmt.Sprintf("%d", st.Misses),
			fmt.Sprintf("%.2f", float64(st.Misses)/float64(total)),
		})
	}
	t.Notes = append(t.Notes,
		"trace: a hot region of interest re-requested between scans over other time steps; cache holds 12 blocks",
		"expected shape: frequency-based policies (foremost FBR) produce fewer misses than LRU (§4.2)")
	return t
}

// explorativeTrace builds the deterministic request sequence of an
// interactive session: 60% of requests re-examine one of eight
// region-of-interest blocks in unpredictable order (the trial-and-error
// loop of §1.1), the rest advance a sequential scan over other time steps.
// The irregular interleaving is what separates the policies: LRU lets the
// scan flush the hot set whenever a re-reference gap is long, while
// frequency counts keep it resident.
func explorativeTrace(ds *dataset.Desc, o Options) []grid.BlockID {
	hot := []int{3, 4, 5, 6, 11, 12, 13, 14} // two wedge groups of interest
	n := 3000
	if o.Quick {
		n = 800
	}
	rng := rand.New(rand.NewSource(42))
	var out []grid.BlockID
	scanStep, scanBlock := 1, 0
	for len(out) < n {
		if rng.Intn(100) < 60 {
			out = append(out, grid.BlockID{Dataset: ds.Name, Step: 0, Block: hot[rng.Intn(len(hot))]})
			continue
		}
		out = append(out, grid.BlockID{Dataset: ds.Name, Step: scanStep, Block: scanBlock})
		scanBlock++
		if scanBlock == ds.Blocks {
			scanBlock = 0
			scanStep++
			if scanStep == ds.Steps {
				scanStep = 1
			}
		}
	}
	return out
}

// AblationPrefetch compares system prefetch policies on cold-cache
// pathlines, where block request order is irregular.
func AblationPrefetch(o Options) *Table {
	o = o.normalize()
	seeds := 16
	if o.Quick {
		seeds = 8
	}
	t := &Table{
		ID: "ablation-prefetch", Title: "Cold pathline runtime by prefetch policy [s]", PaperRef: "§7.3",
		Columns: []string{"Policy", "Runtime", "PrefetchesUsed"},
	}
	for _, pf := range []string{"none", "obl", "onmiss", "markov"} {
		e := NewEnv(EnvConfig{DS: dataset.Engine().WithScale(o.Scale), Workers: 2, Prefetcher: pf})
		var reqID uint64
		e.Session(func(cl *core.Client) {
			p := pathlineParams(2, seeds)
			// Train whatever can learn, then drop caches.
			if _, err := cl.Run("pathlines.dataman", p); err != nil {
				panic(err)
			}
			e.RT.DMS.DropAllCaches()
			res, err := cl.Run("pathlines.dataman", p)
			if err != nil {
				panic(err)
			}
			reqID = res.ReqID
		})
		st, _ := e.RT.Sched.Stats(reqID)
		cs, _ := e.RT.DMS.AggregateStats()
		t.Rows = append(t.Rows, []string{
			pf, Secs(st.TotalRuntime()), fmt.Sprintf("%d", cs.PrefetchUsed),
		})
	}
	t.Notes = append(t.Notes,
		"expected shape: markov+OBL-fallback beats pure sequential policies on time-dependent particle traces")
	return t
}

// AblationLoader shows the cooperative peer-transfer strategy at work: a
// second work group whose members never read the data can fetch it from the
// first group's caches instead of the file server.
func AblationLoader(o Options) *Table {
	o = o.normalize()
	t := &Table{
		ID: "ablation-loader", Title: "Warm-up of an uncached worker [s]", PaperRef: "§4.3",
		Columns: []string{"Config", "FirstRun(w0)", "SecondRun(w0+w1)", "FSLoads"},
	}
	for _, mode := range []string{"peer-transfer", "fileserver-only"} {
		e := NewEnv(EnvConfig{
			DS:          dataset.Engine().WithScale(o.Scale),
			Workers:     2,
			DisablePeer: mode == "fileserver-only",
		})
		var first, second uint64
		e.Session(func(cl *core.Client) {
			// First: a single worker caches every block of the step.
			p1 := engineIsoParams(1)
			r1, err := cl.Run("iso.dataman", p1)
			if err != nil {
				panic(err)
			}
			first = r1.ReqID
			// Second: both workers; w1 is cold and either pulls from w0's
			// cache (peer) or from the slow file server.
			p2 := engineIsoParams(2)
			r2, err := cl.Run("iso.dataman", p2)
			if err != nil {
				panic(err)
			}
			second = r2.ReqID
		})
		s1, _ := e.RT.Sched.Stats(first)
		s2, _ := e.RT.Sched.Stats(second)
		t.Rows = append(t.Rows, []string{
			mode, Secs(s1.TotalRuntime()), Secs(s2.TotalRuntime()),
			fmt.Sprintf("%d", e.Dev.Stats().Loads),
		})
	}
	t.Notes = append(t.Notes,
		"expected shape: with peer transfer the second run avoids file-server traffic (greedy cooperative cache, §4.3)")
	return t
}

// AblationGranularity sweeps the streamed-packet size of ViewerIso: small
// packets minimize latency but flood the client; large packets amortize
// communication at the cost of latency (§5.2's compromise).
func AblationGranularity(o Options) *Table {
	o = o.normalize()
	t := &Table{
		ID: "ablation-granularity", Title: "ViewerIso granularity sweep (Engine, 4 workers)", PaperRef: "§5.2",
		Columns: []string{"Triangles/packet", "Latency[s]", "Total[s]", "Packets"},
	}
	grans := []int{50, 200, 1000, 5000}
	if o.Quick {
		grans = []int{50, 1000}
	}
	for _, g := range grans {
		cfg := EnvConfig{DS: dataset.Engine().WithScale(o.Scale), Workers: 4, Prefetcher: "obl"}
		p := engineIsoParams(4)
		p["granularity"] = strconv.Itoa(g)
		m := RunOne(cfg, "iso.viewer", p, 1)
		t.Rows = append(t.Rows, []string{
			strconv.Itoa(g), Secs(m.Latency), Secs(m.Stats.TotalRuntime()),
			strconv.Itoa(m.Result.Partials),
		})
	}
	t.Notes = append(t.Notes,
		"expected shape: latency grows with packet size; packet count (client load) shrinks — the compromise of §5.2")
	return t
}

// AblationCompression measures the trade-off the paper settled by
// measurement (§4.3): DEFLATE on real block bytes versus the transmission
// time saved. The ratio is measured; the compress throughput is priced at
// compressPerByte, and the break-even bandwidth — the link speed below
// which compressing would start to pay — follows from both.
func AblationCompression(o Options) *Table {
	o = o.normalize()
	t := &Table{
		ID: "ablation-compression", Title: "Block compression vs transmission", PaperRef: "§4.3",
		Columns: []string{"Dataset", "Ratio", "Compress[MB/s]", "Breakeven[MB/s]"},
	}
	compressMBs := 1e-6 / compressPerByte.Seconds()
	for _, name := range []string{"engine", "propfan"} {
		ds, _ := dataset.ByName(name)
		ds = ds.WithScale(o.Scale)
		blk := ds.Generate(0, ds.Blocks/2)
		comp, err := storage.CompressBlock(blk, 6)
		if err != nil {
			panic(err)
		}
		ratio := float64(len(comp)) / float64(len(storage.EncodeBlock(blk)))
		// Compression pays when bytesSaved/bandwidth > compressTime:
		// breakeven bandwidth = saved fraction × compress throughput.
		t.Rows = append(t.Rows, []string{
			name,
			fmt.Sprintf("%.2f", ratio),
			fmt.Sprintf("%.0f", compressMBs),
			fmt.Sprintf("%.1f", (1-ratio)*compressMBs),
		})
	}
	t.Notes = append(t.Notes,
		"ratio = compressed/raw, measured; compress throughput priced for a 900 MHz UltraSPARC III; compression pays only on links slower than the break-even bandwidth",
		"paper: 'ineffective due to long runtimes and low compression rates compared to transmission time' — break-even sits below even Fast Ethernet's 12.5 MB/s")
	return t
}

// AblationCollective sweeps the run length of collective I/O against
// independent loads (§4.3): coordination cost versus the saved per-request
// latencies.
func AblationCollective(o Options) *Table {
	o = o.normalize()
	t := &Table{
		ID: "ablation-collective", Title: "Collective vs independent loads [s]", PaperRef: "§4.3",
		Columns: []string{"RunLength", "Independent", "Collective"},
	}
	ds := dataset.Engine().WithScale(o.Scale)
	runs := []int{1, 2, 4, 8, 16}
	if o.Quick {
		runs = []int{1, 4, 16}
	}
	for _, n := range runs {
		ids := make([]grid.BlockID, n)
		for i := range ids {
			ids[i] = grid.BlockID{Dataset: ds.Name, Step: 0, Block: i % ds.Blocks}
		}
		indep := measureLoads(ds, ids, false)
		coll := measureLoads(ds, ids, true)
		t.Rows = append(t.Rows, []string{
			strconv.Itoa(n),
			fmt.Sprintf("%.3f", indep.Seconds()),
			fmt.Sprintf("%.3f", coll.Seconds()),
		})
	}
	t.Notes = append(t.Notes,
		"collective pays one seek + per-block coordination; independent pays one seek per block",
		"paper: 'coordinating proxies that access a file together is more expensive than the benefit' for typical short runs — the cross-over needs long runs")
	return t
}

func measureLoads(ds *dataset.Desc, ids []grid.BlockID, collective bool) time.Duration {
	v := vclock.NewVirtual()
	// A parallel-file-system-style device: expensive request setup, fast
	// streaming — the environment where collective I/O is supposed to shine
	// ("a parallel file system is needed to execute collective calls
	// effectively", §4.3).
	dev := storage.NewDevice("pfs", &storage.GenBackend{Desc: ds}, v, 50*time.Millisecond, 50e6, 1)
	dev.ChargeBytes = func(grid.BlockID) int64 { return ds.PaperBlockBytes }
	v.Go(func() {
		if collective {
			col := &loader.Collective{Dev: dev, Clock: v, CoordinationCost: 30 * time.Millisecond}
			if _, _, err := col.LoadRun(ids); err != nil {
				panic(err)
			}
			return
		}
		for _, id := range ids {
			if _, _, err := dev.Load(id); err != nil {
				panic(err)
			}
		}
	})
	v.Wait()
	return v.Now()
}

// AblationDistribution compares the static contiguous seed split of the
// paper's pathline command against dynamic claiming from a scheduler-side
// work queue — the "highly elaborated scheduling algorithm" the paper
// names as the missing piece behind Figure 13's bad scalability (§5.2).
func AblationDistribution(o Options) *Table {
	o = o.normalize()
	seeds := 32
	if o.Quick {
		seeds = 12
	}
	t := &Table{
		ID: "ablation-distribution", Title: "Pathlines: static vs dynamic seed distribution [s]", PaperRef: "§5.2/§7.3",
		Columns: []string{"#Workers", "Static", "Dynamic"},
	}
	for _, w := range o.pathWorkerCounts() {
		p := pathlineParams(w, seeds)
		static := RunOne(EnvConfig{DS: dataset.Engine().WithScale(o.Scale), Workers: w, Prefetcher: "markov"},
			"pathlines.dataman", p, 1)
		pd := Params()
		for k, v := range p {
			pd[k] = v
		}
		pd["distribution"] = "dynamic"
		dynamic := RunOne(EnvConfig{DS: dataset.Engine().WithScale(o.Scale), Workers: w, Prefetcher: "markov"},
			"pathlines.dataman", pd, 1)
		t.Rows = append(t.Rows, []string{
			strconv.Itoa(w),
			Secs(static.Stats.TotalRuntime()),
			Secs(dynamic.Stats.TotalRuntime()),
		})
	}
	t.Notes = append(t.Notes,
		"warm caches; identical seed clouds; dynamic pays one fabric round trip per claimed seed",
		"expected shape: equal at 1 worker, dynamic pulls ahead as static imbalance grows with the group")
	return t
}

// AblationProgressive compares the recompute-per-level multi-resolution
// scheme against the truly incremental refinement of §5.3's future-work
// list: same streamed previews and identical final surface, but refinement
// only rescans the neighbourhood of the coarser level's surface.
func AblationProgressive(o Options) *Table {
	o = o.normalize()
	t := &Table{
		ID: "ablation-progressive", Title: "Progressive isosurface: recompute vs incremental [s]", PaperRef: "§5.3/§9",
		Columns: []string{"Mode", "Latency[s]", "Total[s]", "ComputeSum[s]"},
	}
	base := engineIsoParams(4)
	base["levels"] = "2"
	for _, mode := range []string{"recompute", "incremental"} {
		p := Params()
		for k, v := range base {
			p[k] = v
		}
		if mode == "incremental" {
			p["incremental"] = "1"
		}
		m := RunOne(EnvConfig{DS: dataset.Engine().WithScale(o.Scale), Workers: 4, Prefetcher: "obl"},
			"iso.progressive", p, 1)
		t.Rows = append(t.Rows, []string{
			mode, Secs(m.Latency), Secs(m.Stats.TotalRuntime()), Secs(m.Stats.Probes.Compute),
		})
	}
	t.Notes = append(t.Notes,
		"warm caches, 3 levels; both modes stream identical coarse previews and the same final surface",
		"expected shape: incremental refinement cuts the summed compute — the coarse level localizes the fine-level work")
	return t
}
