package core

import (
	"bytes"
	"fmt"
	"os"
	"strconv"
	"testing"
	"time"

	"viracocha/internal/faults"
)

// soakSeeds reports how many randomized fault scenarios TestSoakRecovery
// runs. The in-tree default is small so tier-1 stays fast; `make soak`
// raises it via the SOAK_SEEDS environment variable.
func soakSeeds() int {
	if s := os.Getenv("SOAK_SEEDS"); s != "" {
		if n, err := strconv.Atoi(s); err == nil && n > 0 {
			return n
		}
	}
	return 4
}

// splitmix64 is the same cheap seed-derivation generator the fault injector
// uses — good enough to fan one soak seed into independent scenario knobs.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// TestSoakRecovery runs a family of seeded crash scenarios — varying the
// command (streamed vs gathered spans), group size, victim rank and crash
// time — and asserts every recovery timeline reproduces the fault-free
// result: byte-identical for streamed meshes, signature-identical for
// gathered ones, with scheduler invariants intact throughout.
func TestSoakRecovery(t *testing.T) {
	n := soakSeeds()
	for seed := 1; seed <= n; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			r := splitmix64(uint64(seed))
			pick := func(mod int) int {
				r = splitmix64(r)
				return int(r % uint64(mod))
			}

			workers := 3 + pick(3)               // 3..5 ranks
			items := 2 * workers * (2 + pick(3)) // even spread, 4..8 items per rank
			victim := fmt.Sprintf("w%d", 1+pick(workers-1))
			// Crash somewhere inside the compute window: each item costs
			// 1s of virtual time and every rank owns perRank items, so a
			// crash strictly before perRank seconds is guaranteed to land
			// while the victim still has unfinished blocks. The sub-second
			// jitter keeps it off block boundaries.
			perRank := items / workers
			crashAt := time.Duration(pick(perRank-1))*time.Second +
				time.Duration(100+pick(800))*time.Millisecond
			streamed := pick(2) == 0
			command := "test.spangather"
			if streamed {
				command = "test.spanstream"
			}
			params := map[string]string{
				"workers": strconv.Itoa(workers),
				"items":   strconv.Itoa(items),
			}
			t.Logf("%s workers=%d items=%d crash %s@%v", command, workers, items, victim, crashAt)

			ref, rerr, _, _, _ := runSpanScenario(t, workers, nil, nil, command, params)
			if rerr != nil {
				t.Fatalf("fault-free reference failed: %v", rerr)
			}
			plan := (&faults.Plan{Seed: uint64(seed)}).CrashAt(victim, crashAt)
			res, err, st, _, _ := runSpanScenario(t, workers, plan, nil, command, params)
			if err != nil {
				t.Fatalf("recovery run failed: %v", err)
			}
			if res.Attempt != 0 {
				t.Fatalf("attempt = %d, want 0 (block-granular recovery)", res.Attempt)
			}
			// A streamed span is redistributed; a gathered rank is re-run.
			if redis := boolInt(streamed); st.Retries != 1 || st.Redistributions != redis {
				t.Fatalf("stats = %+v, want Retries=1 Redistributions=%d", st, redis)
			}
			if st.BlocksRecomputed > perRank {
				t.Fatalf("BlocksRecomputed = %d exceeds the victim's span of %d",
					st.BlocksRecomputed, perRank)
			}
			if streamed {
				if !bytes.Equal(res.Merged.EncodeBinary(), ref.Merged.EncodeBinary()) {
					t.Fatal("streamed recovery mesh not byte-identical to reference")
				}
			} else if meshSignature(res.Merged) != meshSignature(ref.Merged) {
				t.Fatal("gathered recovery mesh differs from reference")
			}
		})
	}
}
