// Command viracocha-server hosts a Viracocha post-processing back end: a
// scheduler, a worker pool and the DMS, serving visualization clients over
// TCP (see cmd/viracocha-client).
//
//	viracocha-server -addr :7447 -workers 8 -dataset engine -scale 2
//	viracocha-server -dir /data/engine -dataset engine   # pre-generated files
package main

import (
	"flag"
	"fmt"
	"log"
	"net"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"viracocha"
	"viracocha/internal/dataset"
)

// faultList collects repeatable -fault flags.
type faultList []string

func (f *faultList) String() string     { return strings.Join(*f, ",") }
func (f *faultList) Set(v string) error { *f = append(*f, v); return nil }

// parseFaults builds the fault plan of the -fault rules (nil for none).
func parseFaults(specs []string) (*viracocha.FaultPlan, error) {
	if len(specs) == 0 {
		return nil, nil
	}
	plan := &viracocha.FaultPlan{Seed: 1}
	for _, spec := range specs {
		if err := plan.ParseRule(spec); err != nil {
			return nil, err
		}
	}
	return plan, nil
}

func main() {
	var (
		addr      = flag.String("addr", ":7447", "listen address")
		workers   = flag.Int("workers", 8, "worker pool size")
		datasets  = flag.String("dataset", "engine", "comma-separated data sets to host (engine, propfan, tiny)")
		scale     = flag.Int("scale", 2, "synthetic grid scale")
		dir       = flag.String("dir", "", "serve pre-generated block files from this directory instead of on-demand synthesis")
		latency   = flag.Duration("storage-latency", 0, "sleep this long per block read: paces requests so fault drills (-fault, kill/restart, drain) can land mid-request; 0 = reads cost what the files take")
		failAfter = flag.Duration("fail-after", 0, "declare a silent worker dead after this; workers heartbeat every eighth of it (0 = default 2s, heartbeat 250ms)")
		memBudget = flag.Int64("mem-budget", 0, "DMS byte budget across all cache tiers (0 = unlimited)")
		memo      = flag.Bool("memo", false, "enable cross-session result memoization: identical requests are served from a content-addressed result cache, and concurrent identical requests coalesce onto one multicast extraction (requests override with memo=0/1)")
		statsFile = flag.String("stats", "", "write a JSON stats report (admission, budget, memo, WAL, per-request records) to this file on graceful shutdown")
		lease     = flag.Duration("lease", 30*time.Second, "durable-session lease: how long a disconnected client's session (and its in-flight streams) survives awaiting resume")
		drainTmo  = flag.Duration("drain-timeout", 10*time.Second, "graceful shutdown: how long in-flight requests get to finish after SIGTERM (or a remote drain) before exiting anyway")
		walDir    = flag.String("wal", "", "control-plane write-ahead log directory: admissions, leases, streamed frames and journal progress are logged continuously, so a bounced or even hard-killed (SIGKILL, power-cut) server restarts with exact client resume; add -fsync off when only graceful bounces need to survive")
		fsyncPol  = flag.String("fsync", "always", "WAL fsync policy: always (every acknowledged record durable), interval (bounded loss window), off (the OS decides)")
		faultSpec faultList
	)
	flag.Var(&faultSpec, "fault", "inject a fault rule (repeatable): crash:NODE@DUR, recover:NODE@DUR, flap:NODE:PERIOD, drop:FROM>TO:KIND:PROB, dup:..., delay:FROM>TO:KIND:DUR, read:DATASET:STEP:BLOCK:N, corrupt:DATASET:STEP:BLOCK:N, slow:ENDPOINT@DUR, discon:SESSION:AFTER_MSGS, hang:SESSION")
	flag.Parse()

	opts := viracocha.Options{
		Workers:        *workers,
		Prefetcher:     "obl",
		StorageLatency: *latency,
		Memo:           *memo,
		SessionLease:   *lease,
		DrainTimeout:   *drainTmo,
		WALDir:         *walDir,
		WALFsync:       *fsyncPol,
	}
	ft := viracocha.DefaultFTConfig()
	if *failAfter > 0 {
		// The defaults' ratio (250ms heartbeat, 2s failure window): the
		// detector tolerates seven lost beats whatever the window.
		ft.FailAfter = *failAfter
		ft.HeartbeatEvery = *failAfter / 8
	}
	opts.FT = &ft
	ov := viracocha.DefaultOverloadConfig()
	ov.MemBudget = *memBudget
	opts.Overload = &ov
	plan, err := parseFaults(faultSpec)
	if err != nil {
		log.Fatal(err)
	}
	if plan != nil {
		opts.Faults = plan
		fmt.Printf("fault injection armed: %d rules\n", len(faultSpec))
	}
	sys := viracocha.New(opts)
	for _, name := range strings.Split(*datasets, ",") {
		name = strings.TrimSpace(name)
		if name == "" {
			continue
		}
		if *dir != "" {
			d, err := dataset.ByName(name)
			if err != nil {
				log.Fatal(err)
			}
			if err := sys.AddDatasetDir(d.WithScale(*scale), *dir); err != nil {
				log.Fatal(err)
			}
		} else if _, err := sys.AddDataset(name, *scale); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("hosting data set %q (scale %d)\n", name, *scale)
	}

	if *walDir != "" {
		if err := sys.RecoverWAL(); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("control-plane WAL recovered from %s (%d durable sessions, fsync %s)\n",
			*walDir, sys.SessionCount(), *fsyncPol)
	}

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		log.Fatal(err)
	}

	// SIGTERM/SIGINT → graceful shutdown: reject new requests with a
	// retry-after, let in-flight ones finish (bounded by -drain-timeout),
	// checkpoint and close the WAL, and exit.
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGTERM, syscall.SIGINT)
	go func() {
		s := <-sig
		fmt.Printf("%v: draining (timeout %v)...\n", s, *drainTmo)
		if err := sys.Drain(*drainTmo); err != nil {
			fmt.Println(err)
		}
		if *statsFile != "" {
			if err := sys.WriteStatsReport(*statsFile); err != nil {
				fmt.Println(err)
			} else {
				fmt.Printf("stats report written to %s\n", *statsFile)
			}
		}
		if *walDir != "" {
			if err := sys.CloseWAL(); err != nil {
				fmt.Println(err)
			} else {
				fmt.Printf("WAL checkpointed and closed (%d durable sessions)\n", sys.SessionCount())
			}
		}
		sys.DisconnectClients()
		ln.Close()
		os.Exit(0)
	}()

	fmt.Printf("viracocha-server: %d workers listening on %s (session lease %v)\n", *workers, ln.Addr(), *lease)
	log.Fatal(sys.Serve(ln))
}
