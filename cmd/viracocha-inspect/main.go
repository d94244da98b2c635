// Command viracocha-inspect prints the contents of Viracocha files: block
// files written by viracocha-gen (.vrb), mesh files written by
// viracocha-client (-mesh), JSON stats reports written by viracocha-server
// (-stats), and control-plane WAL directories written by viracocha-server
// (-wal) — pass the directory itself to get a record dump and integrity
// verdict (checkpoint presence, record-kind histogram, torn-tail location).
//
//	viracocha-inspect data/engine/t000/b003.vrb
//	viracocha-inspect -verbose result.mesh
//	viracocha-inspect server-stats.json
//	viracocha-inspect -verbose /var/lib/viracocha/wal
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"os"
	"sort"

	"viracocha"
	"viracocha/internal/comm"
	"viracocha/internal/mesh"
	"viracocha/internal/storage"
	"viracocha/internal/wal"
)

func main() {
	verbose := flag.Bool("verbose", false, "print per-field value ranges")
	flag.Parse()
	if flag.NArg() == 0 {
		fmt.Fprintln(os.Stderr, "usage: viracocha-inspect [-verbose] <file>...")
		os.Exit(2)
	}
	for _, path := range flag.Args() {
		if err := inspect(path, *verbose); err != nil {
			log.Fatalf("%s: %v", path, err)
		}
	}
}

func inspect(path string, verbose bool) error {
	if fi, err := os.Stat(path); err == nil && fi.IsDir() {
		return inspectWAL(path, verbose)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	if rep, ok := decodeStatsReport(data); ok {
		printStatsReport(path, rep, verbose)
		return nil
	}
	if b, err := storage.DecodeBlock(data); err == nil {
		fmt.Printf("%s: block %s\n", path, b.ID)
		fmt.Printf("  dims      %d × %d × %d nodes (%d cells)\n", b.NI, b.NJ, b.NK, b.NumCells())
		fmt.Printf("  payload   %d bytes in memory, %d on disk\n", b.SizeBytes(), len(data))
		box := b.Bounds()
		fmt.Printf("  bounds    [%.4g %.4g %.4g] .. [%.4g %.4g %.4g]\n",
			box.Min.X, box.Min.Y, box.Min.Z, box.Max.X, box.Max.Y, box.Max.Z)
		names := make([]string, 0, len(b.Scalars))
		for n := range b.Scalars {
			names = append(names, n)
		}
		sort.Strings(names)
		fmt.Printf("  fields    velocity")
		for _, n := range names {
			fmt.Printf(", %s", n)
		}
		fmt.Println()
		if verbose {
			for _, n := range names {
				lo, hi := valueRange(b.Scalars[n])
				fmt.Printf("  %-9s ∈ [%.6g, %.6g]\n", n, lo, hi)
			}
			lo, hi := valueRange(b.Velocity)
			fmt.Printf("  |vel comp| ∈ [%.6g, %.6g]\n", lo, hi)
		}
		return nil
	}
	if m, err := mesh.DecodeBinary(data); err == nil {
		fmt.Printf("%s: mesh\n", path)
		fmt.Printf("  geometry  %d vertices, %d triangles\n", m.NumVertices(), m.NumTriangles())
		fmt.Printf("  normals   %v, values %v\n", len(m.Normals) > 0, len(m.Values) > 0)
		box := m.Bounds()
		fmt.Printf("  bounds    [%.4g %.4g %.4g] .. [%.4g %.4g %.4g]\n",
			box.Min.X, box.Min.Y, box.Min.Z, box.Max.X, box.Max.Y, box.Max.Z)
		fmt.Printf("  area      %.6g\n", m.Area())
		if verbose && len(m.Values) > 0 {
			lo, hi := valueRange(m.Values)
			fmt.Printf("  values    ∈ [%.6g, %.6g]\n", lo, hi)
		}
		return nil
	}
	return fmt.Errorf("not a Viracocha block, mesh or stats-report file")
}

// inspectWAL dumps and verifies a control-plane WAL directory: checkpoint
// presence and size, tail-record counts by kind, and — when the log ends in
// half a record, as a crash mid-append leaves it — where the torn tail sits.
// Recovery semantics match the server's exactly (same Recover call), so a
// clean verdict here means a restart will accept the directory. Note that
// Recover truncates a torn segment at the tear, like the server would.
func inspectWAL(dir string, verbose bool) error {
	rec, err := wal.Recover(dir)
	if err != nil {
		return err
	}
	if rec.Checkpoint == nil && len(rec.Records) == 0 && rec.Segments == 0 {
		return fmt.Errorf("no WAL checkpoint or segments found")
	}
	fmt.Printf("%s: control-plane WAL\n", dir)
	if rec.Checkpoint != nil {
		fmt.Printf("  checkpoint %d bytes of compacted state\n", len(rec.Checkpoint))
	} else if rec.CheckpointBad {
		fmt.Printf("  checkpoint UNREADABLE: failed its CRC framing (recovery ignores it and replays records only)\n")
	} else {
		fmt.Printf("  checkpoint none (recovery replays records only)\n")
	}
	fmt.Printf("  segments   %d scanned\n", rec.Segments)
	kinds := map[string]int{}
	bad := 0
	for i, raw := range rec.Records {
		m, err := comm.Decode(raw)
		if err != nil {
			bad++
			if verbose {
				fmt.Printf("  rec %-5d UNDECODABLE (%d bytes): %v\n", i, len(raw), err)
			}
			continue
		}
		kinds[m.Kind]++
		if verbose {
			fmt.Printf("  rec %-5d %-10s req=%d %s\n", i, m.Kind, m.ReqID, recordDetail(m))
		}
	}
	fmt.Printf("  records    %d tail records", len(rec.Records))
	names := make([]string, 0, len(kinds))
	for k := range kinds {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		fmt.Printf(", %s×%d", k, kinds[k])
	}
	fmt.Println()
	if bad > 0 {
		fmt.Printf("  WARNING    %d framed records did not decode as messages\n", bad)
	}
	if rec.Torn {
		fmt.Printf("  torn tail  %s at offset %d (truncated; records before it are intact)\n",
			rec.TornPath, rec.TornOffset)
	} else {
		fmt.Printf("  integrity  clean (every frame passed its CRC)\n")
	}
	return nil
}

// recordDetail compresses a WAL record's interesting parameters to one line.
func recordDetail(m comm.Message) string {
	keys := make([]string, 0, len(m.Params))
	for k := range m.Params {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var b bytes.Buffer
	for _, k := range keys {
		v := m.Params[k]
		if len(v) > 32 {
			v = v[:29] + "..."
		}
		fmt.Fprintf(&b, "%s=%s ", k, v)
	}
	if len(m.Payload) > 0 {
		fmt.Fprintf(&b, "payload=%dB", len(m.Payload))
	}
	return b.String()
}

// decodeStatsReport recognizes a server stats report: a JSON object whose
// marker field carries the format signature.
func decodeStatsReport(data []byte) (viracocha.StatsReport, bool) {
	var rep viracocha.StatsReport
	trimmed := bytes.TrimSpace(data)
	if len(trimmed) == 0 || trimmed[0] != '{' {
		return rep, false
	}
	if err := json.Unmarshal(trimmed, &rep); err != nil || rep.Marker == "" {
		return rep, false
	}
	return rep, true
}

func printStatsReport(path string, rep viracocha.StatsReport, verbose bool) {
	fmt.Printf("%s: stats report (format %s)\n", path, rep.Marker)
	fmt.Printf("  admission rejected: queue %d, quota %d, drain %d\n",
		rep.Overload.RejectedQueue, rep.Overload.RejectedQuota, rep.Overload.RejectedDrain)
	fmt.Printf("  budget    used %d / limit %d bytes (peak %d, rejected %d, shed %d)\n",
		rep.Budget.Used, rep.Budget.Limit, rep.Budget.Peak, rep.Budget.Rejected, rep.Budget.Shed)
	fmt.Printf("  memo      hits %d, misses %d, evictions %d\n",
		rep.Memo.Hits, rep.Memo.Misses, rep.Memo.Evictions)
	fmt.Printf("            invalidations %d, budget-rejected %d; %d entries, %d bytes cached\n",
		rep.Memo.Invalidations, rep.Memo.RejectedBudget, rep.Memo.Entries, rep.Memo.BytesCached)
	fmt.Printf("  wal       records %d, fsyncs %d, checkpoints %d\n",
		rep.WAL.Records, rep.WAL.Fsyncs, rep.WAL.Checkpoints)
	fmt.Printf("  requests  %d finished (%d older records dropped)\n", len(rep.Requests), rep.RequestsDropped)
	if !verbose {
		return
	}
	for _, st := range rep.Requests {
		extra := ""
		if st.MemoHit {
			extra = " memo-hit"
		}
		if st.Subscribers > 0 {
			extra += fmt.Sprintf(" subscribers=%d", st.Subscribers)
		}
		if st.Errors > 0 {
			extra += fmt.Sprintf(" errors=%d", st.Errors)
		}
		fmt.Printf("  req %-5d %-22s workers=%d streams=%d runtime=%v%s\n",
			st.ReqID, st.Command, st.Workers, st.Streams, st.TotalRuntime(), extra)
	}
}

func valueRange(vs []float32) (lo, hi float64) {
	if len(vs) == 0 {
		return 0, 0
	}
	lo, hi = float64(vs[0]), float64(vs[0])
	for _, v := range vs {
		if float64(v) < lo {
			lo = float64(v)
		}
		if float64(v) > hi {
			hi = float64(v)
		}
	}
	return
}
