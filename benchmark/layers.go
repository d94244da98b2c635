package main

import (
	"fmt"
	"net"
	"os"
	"path/filepath"
	"strconv"
	"time"

	"viracocha"
	"viracocha/internal/comm"
	"viracocha/internal/dms"
	"viracocha/internal/grid"
	"viracocha/internal/loader"
	"viracocha/internal/mesh"
	"viracocha/internal/prefetch"
	"viracocha/internal/storage"
	"viracocha/internal/vclock"
	"viracocha/internal/wal"
)

// This file measures layers from outside: each function times a layer's
// public entry points on inputs the workload produced (the partial meshes a
// traced request delivered, the block files the run wrote). Nothing here
// reaches into the program; spans inside it are a later change.

// counters is one reading of every counter the public API exposes.
type counters struct {
	Dev    storage.DeviceStats
	Cache  dms.CacheStats
	Proxy  dms.ProxyStats
	Net    comm.NetworkStats
	Budget viracocha.BudgetStats
	Over   viracocha.OverloadCounters
	Memo   viracocha.MemoStats
}

func readCounters(sys *viracocha.System, dataset string) counters {
	var c counters
	if dev := sys.Runtime.Device("dir:" + dataset); dev != nil {
		c.Dev = dev.Stats()
	}
	c.Cache, c.Proxy = sys.Runtime.DMS.AggregateStats()
	c.Net = sys.Runtime.Net.Stats()
	c.Budget = sys.DMSBudget()
	c.Over = sys.OverloadStats()
	c.Memo = sys.MemoStats()
	return c
}

// counterMetrics reports what the counters moved by between two readings,
// per request where that makes sense.
func counterMetrics(a, b counters, requests int) []metric {
	n := float64(requests)
	d := func(x, y int64) float64 { return float64(y - x) }
	hits, misses := d(a.Cache.Hits, b.Cache.Hits), d(a.Cache.Misses, b.Cache.Misses)
	memoHits, memoMisses := d(a.Memo.Hits, b.Memo.Hits), d(a.Memo.Misses, b.Memo.Misses)
	rejected := d(a.Over.RejectedQueue, b.Over.RejectedQueue) + d(a.Over.RejectedQuota, b.Over.RejectedQuota) +
		d(a.Over.RejectedDrain, b.Over.RejectedDrain)
	c := func(name, unit string, v float64) metric { return single(name, unit, "counter", v, requests) }
	return []metric{
		c("storage.loads_per_req", "1", ratio(d(a.Dev.Loads, b.Dev.Loads), n)),
		c("storage.mb_per_req", "MB", ratio(d(a.Dev.Bytes, b.Dev.Bytes)/1e6, n)),
		c("storage.rereads", "count", d(a.Dev.Rereads, b.Dev.Rereads)),
		c("dms.hit_share", "ratio", ratio(hits, hits+misses)),
		c("dms.demand_loads_per_req", "1", ratio(d(a.Proxy.DemandLoads, b.Proxy.DemandLoads), n)),
		// Since the system started: a block prefetched during warm-up may be
		// used in the pass, so the window's own ratio can exceed 1.
		c("dms.prefetch_used_share", "ratio", ratio(float64(b.Cache.PrefetchUsed), float64(b.Cache.PrefetchPuts))),
		c("dms.waited_inflight_per_req", "1", ratio(d(a.Proxy.WaitedInflight, b.Proxy.WaitedInflight), n)),
		c("dms.evictions_per_req", "1", ratio(d(a.Cache.Evictions, b.Cache.Evictions), n)),
		c("dms.uncached_per_req", "1", ratio(d(a.Proxy.DemandUncached, b.Proxy.DemandUncached), n)),
		c("dms.budget_peak_mb", "MB", float64(b.Budget.Peak)/1e6),
		c("core.rejected", "count", rejected),
		c("core.memo_hit_share", "ratio", ratio(memoHits, memoHits+memoMisses)),
		c("core.memo_extractions_per_req", "1", ratio(memoMisses, n)),
		c("core.memo_evictions", "count", d(a.Memo.Evictions, b.Memo.Evictions)),
		c("core.memo_cached_mb", "MB", float64(b.Memo.BytesCached)/1e6),
		c("comm.fabric_msgs_per_req", "1", ratio(d(a.Net.Messages, b.Net.Messages), n)),
		c("comm.fabric_mb_per_req", "MB", ratio(d(a.Net.Bytes, b.Net.Bytes)/1e6, n)),
	}
}

// statsMetrics reports the scheduler's own records of the requests received
// in the traced pass: the paper's server-side timings.
func statsMetrics(stats []viracocha.RequestStats) []metric {
	var queue, group, read, send, frames, packets []float64
	retries := 0
	for _, st := range stats {
		queue = append(queue, ms(st.Started-st.Received))
		group = append(group, ms(st.TotalRuntime()))
		read = append(read, ms(st.Probes.Read))
		send = append(send, ms(st.Probes.Send))
		frames = append(frames, float64(st.Frames))
		packets = append(packets, float64(st.Streams))
		retries += st.Retries
	}
	return []metric{
		dist("core.queue_wait_ms_p50", "ms", "counter", queue, 0.5),
		dist("core.group_runtime_ms_p50", "ms", "counter", group, 0.5),
		avg("core.read_ms_per_req", "ms", "counter", read),
		avg("core.send_ms_per_req", "ms", "counter", send),
		single("core.retries", "count", "counter", float64(retries), len(stats)),
		avg("comm.frames_per_req", "1", "counter", frames),
		avg("comm.packets_per_req", "1", "counter", packets),
	}
}

// partialMessage is the frame the server puts on the wire for one streamed
// partial, as remote.go reads it.
func partialMessage(req uint64, seq int, payload []byte) comm.Message {
	return comm.Message{
		Kind: "partial", ReqID: req, Seq: seq, Payload: payload,
		Params: map[string]string{"rank": strconv.Itoa(seq % 2), "sseq": strconv.Itoa(seq + 1)},
	}
}

// deliveryMetrics times, on the partial meshes of the captured requests, what
// every layer between the extraction kernel and the merged mesh does with
// them: mesh encode/decode/append, comm encode/decode, a loopback socket, and
// the client's decode-and-merge loop.
func deliveryMetrics(captured [][]*mesh.Mesh) ([]metric, error) {
	var enc, dec, app, merge, payload, frameEnc, frameDec []float64
	var msgs []comm.Message
	for r, parts := range captured {
		var tEnc, tDec, tApp, tMerge time.Duration
		bytes := 0
		merged := &mesh.Mesh{}
		var frames [][]byte
		for i, p := range parts {
			t0 := time.Now()
			buf := p.EncodeBinary()
			tEnc += time.Since(t0)
			bytes += len(buf)

			t0 = time.Now()
			back, err := mesh.DecodeBinary(buf)
			tDec += time.Since(t0)
			if err != nil {
				return nil, fmt.Errorf("mesh round trip: %w", err)
			}
			t0 = time.Now()
			merged.Append(back)
			tApp += time.Since(t0)

			m := partialMessage(uint64(r+1), i, buf)
			t0 = time.Now()
			f := comm.Encode(m)
			frameEnc = append(frameEnc, us(time.Since(t0)))
			frames = append(frames, f)
			msgs = append(msgs, m)
		}
		// The client's share of a request: decode every frame, decode its
		// mesh, append to the merged result (remote.go's receive loop).
		out := &mesh.Mesh{}
		for _, f := range frames {
			t0 := time.Now()
			m, err := comm.Decode(f)
			frameDec = append(frameDec, us(time.Since(t0)))
			if err != nil {
				return nil, fmt.Errorf("comm round trip: %w", err)
			}
			part, err := mesh.DecodeBinary(m.Payload)
			if err != nil {
				return nil, fmt.Errorf("mesh decode: %w", err)
			}
			out.Append(part)
			tMerge += time.Since(t0)
		}
		enc, dec, app = append(enc, ms(tEnc)), append(dec, ms(tDec)), append(app, ms(tApp))
		merge = append(merge, ms(tMerge))
		payload = append(payload, float64(bytes)/1e6)
	}
	mbps, err := loopbackRate(msgs)
	if err != nil {
		return nil, err
	}
	return []metric{
		avg("mesh.encode_ms_per_req", "ms", "direct", enc),
		avg("mesh.decode_ms_per_req", "ms", "direct", dec),
		avg("mesh.append_ms_per_req", "ms", "direct", app),
		dist("comm.encode_us_per_frame", "us", "direct", frameEnc, 0.5),
		dist("comm.decode_us_per_frame", "us", "direct", frameDec, 0.5),
		single("comm.loopback_mb_per_s", "MB/s", "direct", mbps, len(msgs)),
		avg("comm.payload_mb_per_req", "MB", "computed", payload),
		avg("remote.decode_merge_ms_per_req", "ms", "direct", merge),
	}, nil
}

// loopbackRate sends msgs through comm.Conn over a loopback TCP pair and
// returns the payload rate in MB/s.
func loopbackRate(msgs []comm.Message) (float64, error) {
	if len(msgs) == 0 {
		return 0, nil
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	defer ln.Close()
	accepted := make(chan net.Conn, 1)
	go func() {
		c, _ := ln.Accept() // nil on a closed listener: the dial below failed
		accepted <- c
	}()
	out, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		return 0, err
	}
	defer out.Close()
	in := <-accepted
	if in == nil {
		return 0, fmt.Errorf("loopback accept failed")
	}
	defer in.Close()
	sender, receiver := comm.NewConn(out), comm.NewConn(in)
	sent := make(chan error, 1)
	t0 := time.Now()
	go func() {
		for _, m := range msgs {
			if err := sender.Send(m); err != nil {
				sent <- err
				return
			}
		}
		sent <- nil
	}()
	bytes := 0
	for range msgs {
		m, ok := receiver.Recv()
		if !ok {
			return 0, fmt.Errorf("loopback receive failed: %v", <-sent)
		}
		bytes += len(m.Payload)
	}
	d := time.Since(t0)
	if err := <-sent; err != nil {
		return 0, err
	}
	return float64(bytes) / 1e6 / d.Seconds(), nil
}

// storageMetrics times DirBackend.Fetch and DecodeBlock on the block files
// of up to two time steps, and BuildMinMax on one step.
func storageMetrics(data *dataSet) ([]metric, error) {
	be := &storage.DirBackend{Root: data.Dir}
	var fetch []float64
	var decode time.Duration
	var decoded int64
	var index time.Duration
	steps := data.Desc.Steps
	if steps > 2 {
		steps = 2
	}
	for s := 0; s < steps; s++ {
		for b := 0; b < data.Desc.Blocks; b++ {
			id := grid.BlockID{Dataset: data.Desc.Name, Step: s, Block: b}
			t0 := time.Now()
			blk, _, err := be.Fetch(id)
			fetch = append(fetch, ms(time.Since(t0)))
			if err != nil {
				return nil, err
			}
			raw, err := os.ReadFile(be.Path(id))
			if err != nil {
				return nil, err
			}
			t0 = time.Now()
			if _, err := storage.DecodeBlock(raw); err != nil {
				return nil, err
			}
			decode += time.Since(t0)
			decoded += int64(len(raw))
			if s == 0 {
				if vals, ok := blk.Scalars["pressure"]; ok {
					t0 = time.Now()
					grid.BuildMinMax(blk, "pressure", vals)
					index += time.Since(t0)
				}
			}
		}
	}
	return []metric{
		dist("storage.fetch_ms_per_block_p50", "ms", "direct", fetch, 0.5),
		single("storage.decode_mb_per_s", "MB/s", "direct", ratio(float64(decoded)/1e6, decode.Seconds()), len(fetch)),
		single("grid.minmax_build_ms_per_step", "ms", "direct", ms(index), data.Desc.Blocks),
	}, nil
}

// dmsMetrics times Proxy.Get on a resident and on a dropped block, through a
// DMS of its own with the runtime's default configuration over the same
// files.
func dmsMetrics(data *dataSet) ([]metric, error) {
	clk := vclock.NewReal()
	dev := storage.NewDevice("dir:"+data.Desc.Name, &storage.DirBackend{Root: data.Dir}, clk, 0, 0, 2)
	srv := dms.NewServer(clk, dms.DefaultConfig(), &loader.DeviceSource{Dev: dev})
	p := srv.NewProxy("bench", prefetch.None{})
	var hit, miss []float64
	for round := 0; round < 3; round++ {
		for b := 0; b < data.Desc.Blocks; b++ {
			id := grid.BlockID{Dataset: data.Desc.Name, Step: 0, Block: b}
			t0 := time.Now()
			if _, err := p.Get(id); err != nil {
				return nil, err
			}
			miss = append(miss, ms(time.Since(t0)))
			t0 = time.Now()
			if _, err := p.Get(id); err != nil {
				return nil, err
			}
			hit = append(hit, us(time.Since(t0)))
		}
		p.DropCaches()
	}
	return []metric{
		dist("dms.get_hit_us_p50", "us", "direct", hit, 0.5),
		dist("dms.get_miss_ms_p50", "ms", "direct", miss, 0.5),
	}, nil
}

// walAppendMetrics times wal.Append on records as large as the workload's streamed
// frames, with and without fsync, in a directory beside the run's own log.
func walAppendMetrics(scratch string, captured [][]*mesh.Mesh) ([]metric, error) {
	var records [][]byte
	for r, parts := range captured {
		for i, p := range parts {
			records = append(records, comm.Encode(partialMessage(uint64(r+1), i, p.EncodeBinary())))
		}
	}
	if len(records) > 200 {
		records = records[:200]
	}
	appendTimes := func(policy wal.Policy, name string) ([]float64, error) {
		l, err := wal.Open(filepath.Join(scratch, name), wal.Options{Policy: policy})
		if err != nil {
			return nil, err
		}
		var out []float64
		for _, rec := range records {
			t0 := time.Now()
			if err := l.Append(rec); err != nil {
				l.Close()
				return nil, err
			}
			out = append(out, us(time.Since(t0)))
		}
		return out, l.Close()
	}
	off, err := appendTimes(wal.PolicyOff, "wal-direct-off")
	if err != nil {
		return nil, err
	}
	always, err := appendTimes(wal.PolicyAlways, "wal-direct-always")
	if err != nil {
		return nil, err
	}
	for i := range always {
		always[i] /= 1e3
	}
	return []metric{
		dist("wal.append_us_p50", "us", "direct", off, 0.5),
		dist("wal.append_fsync_ms_p50", "ms", "direct", always, 0.5),
	}, nil
}

// dirSize is the number of bytes of the regular files under dir (0 when it
// does not exist).
func dirSize(dir string) int64 {
	var n int64
	_ = filepath.Walk(dir, func(_ string, info os.FileInfo, err error) error {
		if err == nil && info.Mode().IsRegular() {
			n += info.Size()
		}
		return nil // a file vanishing mid-walk (segment pruning) is not an error
	})
	return n
}
