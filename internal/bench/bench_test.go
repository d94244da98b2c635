package bench

import (
	"bytes"
	"fmt"
	"strconv"
	"strings"
	"testing"
)

// quickOpts keeps bench-package tests CI-sized: scale-1 grids, reduced
// worker counts. The shapes asserted here are the paper's findings; the
// full-scale numbers live in EXPERIMENTS.md.
var quickOpts = Options{Scale: 1, Quick: true}

func cell(t *testing.T, tbl *Table, row, col int) float64 {
	t.Helper()
	v, err := strconv.ParseFloat(strings.TrimSuffix(tbl.Rows[row][col], "%"), 64)
	if err != nil {
		t.Fatalf("cell (%d,%d) = %q not numeric", row, col, tbl.Rows[row][col])
	}
	return v
}

func TestTable1MatchesPaperStructure(t *testing.T) {
	tbl := Table1(quickOpts)
	if tbl.Rows[0][1] != "63" || tbl.Rows[0][2] != "50" {
		t.Fatalf("time steps row = %v", tbl.Rows[0])
	}
	if tbl.Rows[1][1] != "23" || tbl.Rows[1][2] != "144" {
		t.Fatalf("blocks row = %v", tbl.Rows[1])
	}
	if tbl.Rows[2][1] != "1.12 GB" || tbl.Rows[2][2] != "19.5 GB" {
		t.Fatalf("size row = %v", tbl.Rows[2])
	}
}

func TestFig6Shape(t *testing.T) {
	tbl := Fig6(quickOpts)
	for r := range tbl.Rows {
		simple := cell(t, tbl, r, 1)
		viewer := cell(t, tbl, r, 2)
		dataman := cell(t, tbl, r, 3)
		if dataman >= simple {
			t.Fatalf("row %v: IsoDataMan (%v) not faster than SimpleIso (%v)", tbl.Rows[r][0], dataman, simple)
		}
		if viewer < dataman {
			t.Fatalf("row %v: ViewerIso (%v) below IsoDataMan (%v): streaming should cost something", tbl.Rows[r][0], viewer, dataman)
		}
	}
	// Parallel speedup: last row faster than first for every command.
	last := len(tbl.Rows) - 1
	for col := 1; col <= 3; col++ {
		if cell(t, tbl, last, col) >= cell(t, tbl, 0, col) {
			t.Fatalf("column %d does not speed up with workers", col)
		}
	}
}

func TestFig8Shape(t *testing.T) {
	tbl := Fig8(quickOpts)
	for r := range tbl.Rows {
		viewer := cell(t, tbl, r, 1)
		dataman := cell(t, tbl, r, 2)
		if viewer >= dataman {
			t.Fatalf("row %v: streaming latency (%v) not below non-streaming (%v)", tbl.Rows[r][0], viewer, dataman)
		}
	}
	// Streaming latency nearly flat: max/min within 4×, while the
	// non-streaming latency scales with workers.
	vmin, vmax := cell(t, tbl, 0, 1), cell(t, tbl, 0, 1)
	for r := range tbl.Rows {
		v := cell(t, tbl, r, 1)
		if v < vmin {
			vmin = v
		}
		if v > vmax {
			vmax = v
		}
	}
	if vmin > 0 && vmax/vmin > 4 {
		t.Fatalf("streaming latency not flat: %v..%v", vmin, vmax)
	}
}

func TestFig9Shape(t *testing.T) {
	tbl := Fig9(quickOpts)
	for r := range tbl.Rows {
		simple := cell(t, tbl, r, 1)
		streamed := cell(t, tbl, r, 2)
		dataman := cell(t, tbl, r, 3)
		if dataman >= simple {
			t.Fatalf("row %v: VortexDataMan not faster than SimpleVortex", tbl.Rows[r][0])
		}
		// Streaming overhead is small relative to λ2's computational cost:
		// the two DMS variants stay within a narrow band of each other
		// (§7.2; at full scale streamed is slightly above dataman).
		if streamed < dataman*0.8 || streamed > dataman*1.35 {
			t.Fatalf("row %v: StreamedVortex (%v) not within the small-overhead band of VortexDataMan (%v)", tbl.Rows[r][0], streamed, dataman)
		}
	}
}

func TestFig11Shape(t *testing.T) {
	tbl := Fig11(quickOpts)
	benefit0 := cell(t, tbl, 0, 1) - cell(t, tbl, 0, 2)
	if benefit0 <= 0 {
		t.Fatalf("prefetching does not help at 1 worker: %v", tbl.Rows[0])
	}
	lastRow := len(tbl.Rows) - 1
	benefitN := cell(t, tbl, lastRow, 1) - cell(t, tbl, lastRow, 2)
	if benefitN > benefit0 {
		t.Fatalf("prefetch benefit grew with workers (%v → %v), paper says it shrinks", benefit0, benefitN)
	}
}

func TestFig12Shape(t *testing.T) {
	tbl := Fig12(quickOpts)
	for r := range tbl.Rows {
		streamed := cell(t, tbl, r, 1)
		dataman := cell(t, tbl, r, 2)
		if streamed*3 > dataman {
			t.Fatalf("row %v: streamed latency (%v) not ≪ non-streamed (%v)", tbl.Rows[r][0], streamed, dataman)
		}
	}
}

func TestFig13Shape(t *testing.T) {
	tbl := Fig13(quickOpts)
	for r := range tbl.Rows {
		simple := cell(t, tbl, r, 1)
		dataman := cell(t, tbl, r, 2)
		if dataman >= simple {
			t.Fatalf("row %v: PathlinesDataMan not faster than SimplePathlines", tbl.Rows[r][0])
		}
	}
	// Bad scalability: going from 1 to 4 workers must not reach 4× for the
	// simple command (load imbalance).
	speedup := cell(t, tbl, 0, 1) / cell(t, tbl, len(tbl.Rows)-1, 1)
	if speedup >= 3.8 {
		t.Fatalf("SimplePathlines scaled too well (%vx): imbalance missing", speedup)
	}
}

func TestFig14Shape(t *testing.T) {
	tbl := Fig14(quickOpts)
	with0 := cell(t, tbl, 0, 2)
	without0 := cell(t, tbl, 0, 1)
	if with0 >= without0 {
		t.Fatalf("Markov prefetching does not pay at 1 worker: %v vs %v", with0, without0)
	}
	last := len(tbl.Rows) - 1
	if cell(t, tbl, last, 2) > cell(t, tbl, last, 1)*1.1 {
		t.Fatalf("prefetching clearly hurts at %s workers", tbl.Rows[last][0])
	}
}

func TestFig15Shape(t *testing.T) {
	tbl := Fig15(quickOpts)
	// Row 0: SimpleIso; row 1: IsoDataMan. Columns: compute, read, send.
	simpleRead := cell(t, tbl, 0, 2)
	datamanRead := cell(t, tbl, 1, 2)
	if simpleRead < 30 {
		t.Fatalf("SimpleIso read share %v%%, want roughly half", simpleRead)
	}
	if datamanRead > 10 {
		t.Fatalf("IsoDataMan read share %v%%, want near zero", datamanRead)
	}
	if cell(t, tbl, 1, 1) < cell(t, tbl, 0, 1) {
		t.Fatal("IsoDataMan compute share should dominate")
	}
}

func TestAblationReplacementShape(t *testing.T) {
	tbl := AblationReplacement(quickOpts)
	lru := cell(t, tbl, 0, 3)
	lfu := cell(t, tbl, 1, 3)
	fbr := cell(t, tbl, 2, 3)
	if lfu >= lru || fbr >= lru {
		t.Fatalf("frequency-based policies not better than LRU: lru=%v lfu=%v fbr=%v", lru, lfu, fbr)
	}
}

func TestAblationPrefetchShape(t *testing.T) {
	tbl := AblationPrefetch(quickOpts)
	byName := map[string]float64{}
	for r := range tbl.Rows {
		byName[tbl.Rows[r][0]] = cell(t, tbl, r, 1)
	}
	if byName["markov"] >= byName["none"] {
		t.Fatalf("markov (%v) not better than none (%v)", byName["markov"], byName["none"])
	}
	if byName["markov"] >= byName["obl"] {
		t.Fatalf("markov (%v) not better than obl (%v) on pathline streams", byName["markov"], byName["obl"])
	}
}

func TestAblationLoaderShape(t *testing.T) {
	tbl := AblationLoader(quickOpts)
	peerLoads := cell(t, tbl, 0, 3)
	fsLoads := cell(t, tbl, 1, 3)
	if peerLoads >= fsLoads {
		t.Fatalf("peer transfer did not reduce file-server loads: %v vs %v", peerLoads, fsLoads)
	}
}

func TestAblationGranularityShape(t *testing.T) {
	tbl := AblationGranularity(quickOpts)
	first, last := 0, len(tbl.Rows)-1
	if cell(t, tbl, first, 3) <= cell(t, tbl, last, 3) {
		t.Fatal("packet count should shrink with granularity")
	}
	if cell(t, tbl, first, 1) > cell(t, tbl, last, 1) {
		t.Fatal("latency should not shrink with granularity")
	}
}

func TestRenderAligns(t *testing.T) {
	tbl := &Table{
		ID: "x", Title: "T", PaperRef: "Fig 0",
		Columns: []string{"A", "LongHeader"},
		Rows:    [][]string{{"1", "2"}, {"333", "4"}},
		Notes:   []string{"note text"},
	}
	var buf bytes.Buffer
	tbl.Render(&buf)
	out := buf.String()
	if !strings.Contains(out, "== x: T (Fig 0)") {
		t.Fatalf("header missing: %q", out)
	}
	if !strings.Contains(out, "note: note text") {
		t.Fatal("note missing")
	}
}

func TestExperimentRegistry(t *testing.T) {
	ids := map[string]bool{}
	for _, e := range All() {
		if ids[e.ID] {
			t.Fatalf("duplicate experiment %s", e.ID)
		}
		ids[e.ID] = true
	}
	for _, want := range []string{"table1", "fig6", "fig7", "fig8", "fig9", "fig10",
		"fig11", "fig12", "fig13", "fig14", "fig15"} {
		if !ids[want] {
			t.Fatalf("experiment %s missing", want)
		}
	}
	if _, ok := ByID("fig6"); !ok {
		t.Fatal("ByID failed")
	}
	if _, ok := ByID("nope"); ok {
		t.Fatal("ByID accepted garbage")
	}
}

func TestAblationCompressionShape(t *testing.T) {
	tbl := AblationCompression(quickOpts)
	for r := range tbl.Rows {
		ratio := cell(t, tbl, r, 1)
		if ratio < 0.2 || ratio > 1.05 {
			t.Fatalf("%s: implausible compression ratio %v", tbl.Rows[r][0], ratio)
		}
		if cell(t, tbl, r, 3) <= 0 {
			t.Fatalf("%s: non-positive break-even bandwidth", tbl.Rows[r][0])
		}
	}
}

// TestAblationCompressionReproducible: the compression table is priced, not
// timed on the host, so two runs render identical rows.
func TestAblationCompressionReproducible(t *testing.T) {
	var out [2]bytes.Buffer
	for i := range out {
		if err := AblationCompression(quickOpts).WriteTSV(&out[i]); err != nil {
			t.Fatal(err)
		}
	}
	if !bytes.Equal(out[0].Bytes(), out[1].Bytes()) {
		t.Fatalf("two runs differ:\n%s\n%s", out[0].String(), out[1].String())
	}
}

func TestAblationCollectiveShape(t *testing.T) {
	tbl := AblationCollective(quickOpts)
	first, last := 0, len(tbl.Rows)-1
	// Short runs: coordination outweighs the saved seek (collective loses).
	if cell(t, tbl, first, 2) <= cell(t, tbl, first, 1) {
		t.Fatalf("collective should lose at run length %s", tbl.Rows[first][0])
	}
	// Long runs: the single seek amortizes (collective wins).
	if cell(t, tbl, last, 2) >= cell(t, tbl, last, 1) {
		t.Fatalf("collective should win at run length %s", tbl.Rows[last][0])
	}
}

func TestAblationDistributionShape(t *testing.T) {
	tbl := AblationDistribution(quickOpts)
	last := len(tbl.Rows) - 1
	static := cell(t, tbl, last, 1)
	dynamic := cell(t, tbl, last, 2)
	if dynamic > static*1.05 {
		t.Fatalf("dynamic (%v) clearly worse than static (%v) at %s workers",
			dynamic, static, tbl.Rows[last][0])
	}
}

func TestInteractionShape(t *testing.T) {
	tbl := Interaction(quickOpts)
	naiveMedian := cell(t, tbl, 0, 1)
	viraMedian := cell(t, tbl, 1, 1)
	if viraMedian*3 > naiveMedian {
		t.Fatalf("streaming median first-feedback (%v) not ≪ naive (%v)", viraMedian, naiveMedian)
	}
	// Budget hits: viracocha must meet the budget for more interactions.
	parse := func(cellv string) (int, int) {
		var a, b int
		fmt.Sscanf(cellv, "%d/%d", &a, &b)
		return a, b
	}
	na, _ := parse(tbl.Rows[0][3])
	va, vt := parse(tbl.Rows[1][3])
	if va <= na {
		t.Fatalf("budget hits: viracocha %d vs naive %d", va, na)
	}
	if va < vt-2 {
		t.Fatalf("viracocha met the budget for only %d of %d interactions", va, vt)
	}
}

func TestWriteTSV(t *testing.T) {
	tbl := &Table{ID: "x", Title: "T", PaperRef: "Fig 0",
		Columns: []string{"A", "B"}, Rows: [][]string{{"1", "2"}}}
	var buf bytes.Buffer
	if err := tbl.WriteTSV(&buf); err != nil {
		t.Fatal(err)
	}
	want := "# x: T (Fig 0)\nA\tB\n1\t2\n"
	if buf.String() != want {
		t.Fatalf("TSV = %q", buf.String())
	}
}

func TestAblationProgressiveShape(t *testing.T) {
	tbl := AblationProgressive(quickOpts)
	recompute := cell(t, tbl, 0, 3)
	incremental := cell(t, tbl, 1, 3)
	if incremental >= recompute {
		t.Fatalf("incremental compute (%v) not below recompute (%v)", incremental, recompute)
	}
}

func TestFig7Shape(t *testing.T) {
	tbl := Fig7(quickOpts)
	for r := range tbl.Rows {
		simple := cell(t, tbl, r, 1)
		dataman := cell(t, tbl, r, 3)
		// Propfan: I/O dominates the no-DMS baseline by a wide margin.
		if dataman*2 > simple {
			t.Fatalf("row %v: IsoDataMan (%v) not ≪ SimpleIso (%v) on the 19.5GB set", tbl.Rows[r][0], dataman, simple)
		}
	}
}

func TestFig10Shape(t *testing.T) {
	tbl := Fig10(quickOpts)
	for r := range tbl.Rows {
		simple := cell(t, tbl, r, 1)
		dataman := cell(t, tbl, r, 3)
		if dataman >= simple {
			t.Fatalf("row %v: VortexDataMan (%v) not below SimpleVortex (%v)", tbl.Rows[r][0], dataman, simple)
		}
	}
}
