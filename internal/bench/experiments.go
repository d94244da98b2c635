package bench

import (
	"fmt"
	"io"
	"strconv"
	"strings"
	"time"

	"viracocha/internal/core"
	"viracocha/internal/dataset"
)

// Options tunes the experiment suite.
type Options struct {
	// Scale multiplies the synthetic grid resolution per axis (default 2).
	Scale int
	// Quick trims worker counts and seed counts for CI-speed runs.
	Quick bool
}

func (o Options) normalize() Options {
	if o.Scale < 1 {
		o.Scale = 2
	}
	return o
}

func (o Options) workerCounts() []int {
	if o.Quick {
		return []int{1, 4}
	}
	return []int{1, 2, 4, 8, 16}
}

func (o Options) pathWorkerCounts() []int {
	if o.Quick {
		return []int{1, 4}
	}
	return []int{1, 2, 4, 8}
}

// Table is one regenerated paper table/figure.
type Table struct {
	ID       string
	Title    string
	PaperRef string
	Columns  []string
	Rows     [][]string
	Notes    []string
}

// Render writes the table as aligned text.
func (t *Table) Render(w io.Writer) {
	fmt.Fprintf(w, "== %s: %s (%s)\n", t.ID, t.Title, t.PaperRef)
	widths := make([]int, len(t.Columns))
	for i, c := range t.Columns {
		widths[i] = len(c)
	}
	for _, r := range t.Rows {
		for i, cell := range r {
			if i < len(widths) && len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	line := func(cells []string) {
		parts := make([]string, len(cells))
		for i, c := range cells {
			parts[i] = fmt.Sprintf("%-*s", widths[i], c)
		}
		fmt.Fprintln(w, "  "+strings.Join(parts, "  "))
	}
	line(t.Columns)
	for _, r := range t.Rows {
		line(r)
	}
	for _, n := range t.Notes {
		fmt.Fprintln(w, "  note: "+n)
	}
	fmt.Fprintln(w)
}

// Experiment regenerates one paper table or figure.
type Experiment struct {
	ID    string
	Title string
	Run   func(o Options) *Table
}

// All returns every experiment in paper order.
func All() []Experiment {
	return []Experiment{
		{"table1", "Multi-block test data sets", Table1},
		{"fig6", "Engine, isosurface, total runtime", Fig6},
		{"fig7", "Propfan, isosurface, total runtime", Fig7},
		{"fig8", "Propfan, isosurface latency", Fig8},
		{"fig9", "Engine, Lambda-2, total runtime", Fig9},
		{"fig10", "Propfan, Lambda-2, total runtime", Fig10},
		{"fig11", "Engine, Lambda-2, prefetching influence", Fig11},
		{"fig12", "Propfan, vortex latency", Fig12},
		{"fig13", "Engine, pathlines, total runtime", Fig13},
		{"fig14", "Engine, pathlines, prefetching influence", Fig14},
		{"fig15", "Isosurface compute/read/send split", Fig15},
		{"ablation-replacement", "Cache replacement policies", AblationReplacement},
		{"ablation-prefetch", "Prefetch policies on pathlines", AblationPrefetch},
		{"ablation-loader", "Peer transfer vs file server only", AblationLoader},
		{"ablation-granularity", "Streaming granularity trade-off", AblationGranularity},
		{"ablation-compression", "Compression vs transmission", AblationCompression},
		{"ablation-collective", "Collective vs independent I/O", AblationCollective},
		{"ablation-distribution", "Static vs dynamic seed distribution", AblationDistribution},
		{"ablation-progressive", "Progressive iso: recompute vs incremental", AblationProgressive},
		{"interaction", "Explorative session, time to first feedback", Interaction},
	}
}

// ByID finds an experiment.
func ByID(id string) (Experiment, bool) {
	for _, e := range All() {
		if e.ID == id {
			return e, true
		}
	}
	return Experiment{}, false
}

// Shared workloads. Iso values and λ2 thresholds are chosen inside the
// scalar ranges of the synthetic fields (see dataset package).
func engineIsoParams(workers int) map[string]string {
	return Params("dataset", "engine", "workers", strconv.Itoa(workers),
		"field", "pressure", "iso", "500",
		"ex", "-0.2", "ey", "0", "ez", "0.05", "granularity", "500")
}

func propfanIsoParams(workers int) map[string]string {
	return Params("dataset", "propfan", "workers", strconv.Itoa(workers),
		"field", "pressure", "iso", "-1200",
		"ex", "-3", "ey", "0", "ez", "1.5", "granularity", "500")
}

func vortexParams(ds string, workers int) map[string]string {
	return Params("dataset", ds, "workers", strconv.Itoa(workers),
		"lambda2", "-1000", "cellbatch", "256")
}

func pathlineParams(workers, seeds int) map[string]string {
	return Params("dataset", "engine", "workers", strconv.Itoa(workers),
		"seeds", strconv.Itoa(seeds),
		"seedbox", "-0.03,-0.03,0.02,0.03,0.03,0.08",
		"stepdt", "0.0005", "t0", "0", "t1", "0.01")
}

// Table1 regenerates the data-set inventory.
func Table1(o Options) *Table {
	o = o.normalize()
	t := &Table{
		ID: "table1", Title: "Multi-block test data sets", PaperRef: "Table 1",
		Columns: []string{"", "Engine", "Propfan"},
	}
	e := dataset.Engine().WithScale(o.Scale)
	p := dataset.Propfan().WithScale(o.Scale)
	nodes := func(d *dataset.Desc) string {
		step := d.GenerateStep(0)
		n := 0
		for _, b := range step.Blocks {
			n += b.NumNodes()
		}
		return fmt.Sprintf("%d", n)
	}
	t.Rows = [][]string{
		{"# of time steps", strconv.Itoa(e.Steps), strconv.Itoa(p.Steps)},
		{"# of blocks", strconv.Itoa(e.Blocks), strconv.Itoa(p.Blocks)},
		{"Size on disk (paper)", e.PaperSizeOnDisk, p.PaperSizeOnDisk},
		{"Synthetic nodes/step", nodes(e), nodes(p)},
	}
	t.Notes = append(t.Notes, "step/block structure matches the paper; grids are scaled synthetics, I/O is charged at paper-scale bytes")
	return t
}

// isoFigure is the shared shape of Figures 6 and 7.
func isoFigure(o Options, id, ref string, ds func() *dataset.Desc, params func(int) map[string]string) *Table {
	o = o.normalize()
	t := &Table{
		ID: id, Title: "Isosurface total runtime [s]", PaperRef: ref,
		Columns: []string{"#Workers", "SimpleIso", "ViewerIso", "IsoDataMan"},
	}
	for _, w := range o.workerCounts() {
		cfg := EnvConfig{DS: ds().WithScale(o.Scale), Workers: w, Prefetcher: "obl"}
		p := params(w)
		simple := RunOne(cfg, "iso.simple", p, 0)
		viewer := RunOne(cfg, "iso.viewer", p, 1)
		dataman := RunOne(cfg, "iso.dataman", p, 1)
		t.Rows = append(t.Rows, []string{
			strconv.Itoa(w),
			Secs(simple.Stats.TotalRuntime()),
			Secs(viewer.Stats.TotalRuntime()),
			Secs(dataman.Stats.TotalRuntime()),
		})
	}
	t.Notes = append(t.Notes,
		"SimpleIso pays full I/O (no DMS); ViewerIso/IsoDataMan measured on warm caches as in §7",
		"expected shape: DataMan ≪ Simple; ViewerIso slightly above DataMan (BSP + streaming overhead)")
	return t
}

// Fig6 regenerates Figure 6 (Engine).
func Fig6(o Options) *Table {
	return isoFigure(o, "fig6", "Figure 6", dataset.Engine, engineIsoParams)
}

// Fig7 regenerates Figure 7 (Propfan).
func Fig7(o Options) *Table {
	return isoFigure(o, "fig7", "Figure 7", dataset.Propfan, propfanIsoParams)
}

// Fig8 regenerates the Propfan isosurface latency comparison.
func Fig8(o Options) *Table {
	o = o.normalize()
	t := &Table{
		ID: "fig8", Title: "Isosurface latency [s]", PaperRef: "Figure 8",
		Columns: []string{"#Workers", "ViewerIso", "IsoDataMan"},
	}
	for _, w := range o.workerCounts() {
		cfg := EnvConfig{DS: dataset.Propfan().WithScale(o.Scale), Workers: w, Prefetcher: "obl"}
		p := propfanIsoParams(w)
		viewer := RunOne(cfg, "iso.viewer", p, 1)
		dataman := RunOne(cfg, "iso.dataman", p, 1)
		t.Rows = append(t.Rows, []string{
			strconv.Itoa(w), Secs(viewer.Latency), Secs(dataman.Latency),
		})
	}
	t.Notes = append(t.Notes,
		"latency = time until first visualizable data at the client",
		"expected shape: streaming latency small and nearly flat in workers; non-streaming latency ≈ total runtime")
	return t
}

// vortexFigure is the shared shape of Figures 9 and 10.
func vortexFigure(o Options, id, ref, ds string, mk func() *dataset.Desc) *Table {
	o = o.normalize()
	t := &Table{
		ID: id, Title: "Lambda-2 total runtime [s]", PaperRef: ref,
		Columns: []string{"#Workers", "SimpleVortex", "StreamedVortex", "VortexDataMan"},
	}
	for _, w := range o.workerCounts() {
		cfg := EnvConfig{DS: mk().WithScale(o.Scale), Workers: w, Prefetcher: "obl"}
		p := vortexParams(ds, w)
		simple := RunOne(cfg, "vortex.simple", p, 0)
		streamed := RunOne(cfg, "vortex.streamed", p, 1)
		dataman := RunOne(cfg, "vortex.dataman", p, 1)
		t.Rows = append(t.Rows, []string{
			strconv.Itoa(w),
			Secs(simple.Stats.TotalRuntime()),
			Secs(streamed.Stats.TotalRuntime()),
			Secs(dataman.Stats.TotalRuntime()),
		})
	}
	t.Notes = append(t.Notes,
		"expected shape: DMS versions ≪ Simple; streaming overhead relatively smaller than in the isosurface case (§7.2)")
	return t
}

// Fig9 regenerates Figure 9 (Engine λ2).
func Fig9(o Options) *Table { return vortexFigure(o, "fig9", "Figure 9", "engine", dataset.Engine) }

// Fig10 regenerates Figure 10 (Propfan λ2).
func Fig10(o Options) *Table {
	return vortexFigure(o, "fig10", "Figure 10", "propfan", dataset.Propfan)
}

// Fig11 regenerates the cold-cache prefetching comparison for vortex
// extraction on the Engine.
func Fig11(o Options) *Table {
	o = o.normalize()
	t := &Table{
		ID: "fig11", Title: "Lambda-2 runtime without/with prefetching [s]", PaperRef: "Figure 11",
		Columns: []string{"#Workers", "without", "with"},
	}
	for _, w := range o.workerCounts() {
		p := vortexParams("engine", w)
		pNo := Params()
		for k, v := range p {
			pNo[k] = v
		}
		pNo["prefetch"] = "0"
		without := RunOne(EnvConfig{DS: dataset.Engine().WithScale(o.Scale), Workers: w, Prefetcher: "none"},
			"vortex.dataman", pNo, 0)
		with := RunOne(EnvConfig{DS: dataset.Engine().WithScale(o.Scale), Workers: w, Prefetcher: "obl"},
			"vortex.dataman", p, 0)
		t.Rows = append(t.Rows, []string{
			strconv.Itoa(w), Secs(without.Stats.TotalRuntime()), Secs(with.Stats.TotalRuntime()),
		})
	}
	t.Notes = append(t.Notes,
		"cold caches on both sides: the DMS overlaps I/O with computation via OBL + code prefetches",
		"expected shape: prefetching wins; the benefit shrinks as workers grow (less compute to hide I/O behind, §7.2)")
	return t
}

// Fig12 regenerates the Propfan vortex latency comparison.
func Fig12(o Options) *Table {
	o = o.normalize()
	t := &Table{
		ID: "fig12", Title: "Vortex latency [s]", PaperRef: "Figure 12",
		Columns: []string{"#Workers", "StreamedVortex", "VortexDataMan"},
	}
	for _, w := range o.workerCounts() {
		cfg := EnvConfig{DS: dataset.Propfan().WithScale(o.Scale), Workers: w, Prefetcher: "obl"}
		p := vortexParams("propfan", w)
		streamed := RunOne(cfg, "vortex.streamed", p, 1)
		dataman := RunOne(cfg, "vortex.dataman", p, 1)
		t.Rows = append(t.Rows, []string{
			strconv.Itoa(w), Secs(streamed.Latency), Secs(dataman.Latency),
		})
	}
	t.Notes = append(t.Notes,
		"expected shape: first streamed vortex fragments arrive long before the non-streamed result (§7.2: ~4.2s vs ~45s at 16 workers)")
	return t
}

// Fig13 regenerates the pathline scalability comparison.
func Fig13(o Options) *Table {
	o = o.normalize()
	seeds := 32
	if o.Quick {
		seeds = 8
	}
	t := &Table{
		ID: "fig13", Title: "Pathlines total runtime [s]", PaperRef: "Figure 13",
		Columns: []string{"#Workers", "SimplePathlines", "PathlinesDataMan"},
	}
	for _, w := range o.pathWorkerCounts() {
		p := pathlineParams(w, seeds)
		simple := RunOne(EnvConfig{DS: dataset.Engine().WithScale(o.Scale), Workers: w}, "pathlines.simple", p, 0)
		dataman := RunOne(EnvConfig{DS: dataset.Engine().WithScale(o.Scale), Workers: w, Prefetcher: "markov"},
			"pathlines.dataman", p, 1)
		t.Rows = append(t.Rows, []string{
			strconv.Itoa(w),
			Secs(simple.Stats.TotalRuntime()),
			Secs(dataman.Stats.TotalRuntime()),
		})
	}
	t.Notes = append(t.Notes,
		"static seed distribution: unequal per-pathline effort ⇒ poor scalability for both (§7.3)",
		"expected shape: DataMan ≪ Simple (cached blocks), scaling stays bad")
	return t
}

// Fig14 regenerates the Markov-prefetching influence on cold-cache
// pathlines: the predictor is trained by one run, caches are dropped, and
// the cold re-run is measured — against the same protocol without
// prefetching.
func Fig14(o Options) *Table {
	o = o.normalize()
	seeds := 32
	if o.Quick {
		seeds = 8
	}
	t := &Table{
		ID: "fig14", Title: "Pathlines runtime without/with (Markov) prefetching [s]", PaperRef: "Figure 14",
		Columns: []string{"#Workers", "without", "with"},
	}
	measure := func(w int, pf string) time.Duration {
		e := NewEnv(EnvConfig{DS: dataset.Engine().WithScale(o.Scale), Workers: w, Prefetcher: pf})
		var reqID uint64
		e.Session(func(cl *core.Client) {
			p := pathlineParams(w, seeds)
			// Learning phase: one full run trains the Markov predictor.
			if _, err := cl.Run("pathlines.dataman", p); err != nil {
				panic(err)
			}
			// Cold caches, trained predictor.
			e.RT.DMS.DropAllCaches()
			res, err := cl.Run("pathlines.dataman", p)
			if err != nil {
				panic(err)
			}
			reqID = res.ReqID
		})
		st, _ := e.RT.Sched.Stats(reqID)
		return st.TotalRuntime()
	}
	for _, w := range o.pathWorkerCounts() {
		without := measure(w, "none")
		with := measure(w, "markov")
		t.Rows = append(t.Rows, []string{strconv.Itoa(w), Secs(without), Secs(with)})
	}
	t.Notes = append(t.Notes,
		"cold caches, predictor trained by a prior identical run (the paper's learning phase)",
		"expected shape: Markov prefetching overlaps I/O with integration; naive sequential prefetchers fail on these request streams (§7.3)")
	return t
}

// Fig15 regenerates the compute/read/send breakdown pies as percentage rows.
func Fig15(o Options) *Table {
	o = o.normalize()
	t := &Table{
		ID: "fig15", Title: "Isosurface component split, Engine [%]", PaperRef: "Figure 15",
		Columns: []string{"Command", "Compute", "Read", "Send"},
	}
	cfg := EnvConfig{DS: dataset.Engine().WithScale(o.Scale), Workers: 1, Prefetcher: "obl"}
	p := engineIsoParams(1)
	split := func(m Measurement) []string {
		pr := m.Stats.Probes
		total := pr.Compute + pr.Read + pr.Send
		pct := func(d time.Duration) string {
			if total == 0 {
				return "0%"
			}
			return fmt.Sprintf("%.0f%%", 100*float64(d)/float64(total))
		}
		return []string{pct(pr.Compute), pct(pr.Read), pct(pr.Send)}
	}
	simple := RunOne(cfg, "iso.simple", p, 0)
	dataman := RunOne(cfg, "iso.dataman", p, 1)
	t.Rows = append(t.Rows,
		append([]string{"SimpleIso"}, split(simple)...),
		append([]string{"IsoDataMan"}, split(dataman)...),
	)
	t.Notes = append(t.Notes,
		"paper: SimpleIso ≈ 49/50/1, IsoDataMan ≈ 85/5/10 — caching turns the read share into a sliver")
	return t
}

// WriteTSV writes the table as a tab-separated file (gnuplot/pandas-ready):
// a # header comment, the column names, then the rows.
func (t *Table) WriteTSV(w io.Writer) error {
	if _, err := fmt.Fprintf(w, "# %s: %s (%s)\n", t.ID, t.Title, t.PaperRef); err != nil {
		return err
	}
	if _, err := fmt.Fprintln(w, strings.Join(t.Columns, "\t")); err != nil {
		return err
	}
	for _, r := range t.Rows {
		if _, err := fmt.Fprintln(w, strings.Join(r, "\t")); err != nil {
			return err
		}
	}
	return nil
}
