package bench

import (
	"fmt"
	"time"

	"viracocha/internal/core"
	"viracocha/internal/dataset"
)

// AblationIndex measures the cached derived entities on the interaction
// they exist for: a user dragging the vortex threshold over a warm data set
// (the trial-and-error parameter search of §1.1). Each sweep re-queries the
// same blocks with a series of λ2 thresholds. With the index on, the
// vortex-skip gradient index — one eigen-free sweep per block, cached
// across every later threshold — bounds |λ2| by ‖J‖²_F and proves quiet
// blocks vortex-free before any eigenvalue is solved, and a block that is
// scanned reuses its cached λ2 field; the cold first query additionally
// pays the gradient sweeps. Both live in the DMS as cached data entities.
// (The iso slider needs no index: the bit-parallel scan classifies a
// block's cells as fast as the retired min/max bricks skipped them.)
func AblationIndex(o Options) *Table {
	o = o.normalize()
	t := &Table{
		ID: "ablation-index", Title: "Vortex-skip gradient index: λ2 threshold sweep [s]", PaperRef: "§4.2/§5",
		Columns: []string{"Index", "FirstQuery[s]", "WarmSweep[s]", "WarmPerQuery[s]"},
	}
	workers := 8
	if o.Quick {
		workers = 4
	}
	l2s := []string{"-4000", "-2000", "-1000", "-500", "-250"}
	if o.Quick {
		l2s = []string{"-2000", "-1000", "-500"}
	}
	for _, mode := range []string{"off", "on"} {
		indexParam := "0"
		if mode == "on" {
			indexParam = "1"
		}
		e := NewEnv(EnvConfig{DS: dataset.Engine().WithScale(o.Scale), Workers: workers, Prefetcher: "obl"})
		var first, sweep time.Duration
		e.Session(func(cl *core.Client) {
			run := func(l2 string) {
				p := Params("dataset", "engine", "workers", fmt.Sprint(workers),
					"lambda2", l2, "index", indexParam)
				if _, err := cl.Run("vortex.dataman", p); err != nil {
					panic(fmt.Sprintf("bench: vortex.dataman failed: %v", err))
				}
			}
			start := e.V.Now()
			run(l2s[0]) // cold: loads every block (and builds the gradient indexes)
			first = e.V.Now() - start
			mark := e.V.Now()
			for _, l2 := range l2s { // warm: the threshold sweep proper
				run(l2)
			}
			sweep = e.V.Now() - mark
		})
		per := sweep / time.Duration(len(l2s))
		t.Rows = append(t.Rows, []string{
			"vortex-" + mode, Secs(first), Secs(sweep), fmt.Sprintf("%.2f", per.Seconds()),
		})
	}
	t.Notes = append(t.Notes,
		fmt.Sprintf("one cold query then a %d-position λ2 threshold sweep over warm caches; gradient indexes and λ2 fields cached as derived DMS entities", len(l2s)),
		"expected shape: warm sweep far cheaper with the index (block skips + cached λ2 fields); the first query pays the gradient sweeps")
	return t
}
