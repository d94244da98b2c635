// Package faults provides deterministic, seeded fault injection for the
// Viracocha fabric, workers and storage. A Plan describes what goes wrong —
// per-link message drop/duplication/extra delay, worker crashes at a given
// virtual time, storage read errors — and an Injector compiled from it is
// wired into comm.Network.Send, the worker runtime and the device read path.
// Everything is behind nil-by-default hooks, so the happy path is unchanged.
//
// Probabilistic decisions are keyed by (Seed, link, per-link message index)
// through a splitmix64 hash, so a given plan makes the same decisions on
// every run regardless of goroutine interleaving — under the virtual clock,
// failure scenarios are exactly reproducible.
package faults

import (
	"fmt"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"time"

	"viracocha/internal/comm"
	"viracocha/internal/grid"
)

// Any is the wildcard for string match fields in rules.
const Any = "*"

// LinkRule applies faults to messages flowing From → To. Empty or "*" match
// fields match everything.
type LinkRule struct {
	// From and To filter on endpoint names ("w0", "scheduler", "client1").
	From, To string
	// Kind filters on the message kind ("wdone", "partial", ...).
	Kind string
	// Drop and Duplicate are per-message probabilities in [0,1]; 1 means
	// every matching message.
	Drop, Duplicate float64
	// Delay is an extra in-flight delay added to every matching message.
	Delay time.Duration
}

// ReadRule injects errors into the storage read path.
type ReadRule struct {
	// Dataset filters on the data set name ("" or "*" = any).
	Dataset string
	// Step and Block filter on the block address; -1 matches any.
	Step, Block int
	// Fail is how many matching reads fail before the rule burns out;
	// Fail < 0 fails every matching read.
	Fail int
}

// DisconRule drops one TCP connection deterministically: after the bridge
// has delivered After frames to the connection named Name (a session ID, or
// Any), the next delivery severs the link instead. Each rule fires once —
// repeat the rule to drop a reconnected session again.
type DisconRule struct {
	Name  string
	After int
}

// TornRule tears one write-ahead-log append mid-record: the Nth append
// (1-based, counted per matched file) to a segment whose path or base name
// matches Path writes only a partial frame and then fails as a power loss
// would. Each rule fires once.
type TornRule struct {
	Path string
	N    int
}

// Plan is a complete, seeded fault scenario.
type Plan struct {
	// Seed drives all probabilistic decisions; the same seed replays the
	// same faults.
	Seed uint64
	// Links are applied in order; the first matching rule decides a
	// message's fate.
	Links []LinkRule
	// Crashes maps worker node names to the virtual time at which the node
	// fail-stops (it stops sending, receiving and heartbeating).
	Crashes map[string]time.Duration
	// Reads are applied in order; the first matching rule with budget left
	// fails the read.
	Reads []ReadRule
	// Corrupts are applied in order; the first matching rule with budget
	// left marks the read's data as corrupted (the device's integrity check
	// fails and it re-reads once).
	Corrupts []ReadRule
	// Consumers maps client endpoint names ("client1", or Any for all) to an
	// extra per-packet processing delay: the slow-consumer scenario for the
	// streaming backpressure path.
	Consumers map[string]time.Duration
	// Disconnects are applied in order; the first un-burned matching rule
	// whose frame count has been reached drops the client connection
	// mid-stream (the TCP bridge consults OnConnFrame before each delivery).
	Disconnects []DisconRule
	// Hangs marks connection names (or Any) whose peer goes silent without
	// closing: the bridge treats sends to them as wedged, exercising the
	// write-deadline path deterministically.
	Hangs map[string]bool
	// Recovers maps worker node names to the virtual time at which a crashed
	// node reboots and rejoins the scheduler.
	Recovers map[string]time.Duration
	// Flaps maps worker node names to a crash/rejoin half-period: the node
	// crashes after every PERIOD of uptime and reboots PERIOD later, over and
	// over: a churn source for rejoin and epoch fencing.
	Flaps map[string]time.Duration
	// Torns tear WAL appends mid-record; the first un-burned matching rule
	// whose append count is reached fires (the wal package consults
	// OnWALAppend before each write).
	Torns []TornRule
	// FsyncFails are WAL file paths (or base names, or Any) whose next
	// fsync fails with an injected error; each entry burns after one use.
	FsyncFails []string
}

// CrashAt registers a worker crash and returns the plan for chaining.
func (p *Plan) CrashAt(node string, at time.Duration) *Plan {
	if p.Crashes == nil {
		p.Crashes = map[string]time.Duration{}
	}
	p.Crashes[node] = at
	return p
}

// RecoverAt registers a worker reboot-and-rejoin at virtual time at and
// returns the plan for chaining. Pair it with CrashAt for a crash→recover
// timeline.
func (p *Plan) RecoverAt(node string, at time.Duration) *Plan {
	if p.Recovers == nil {
		p.Recovers = map[string]time.Duration{}
	}
	p.Recovers[node] = at
	return p
}

// Flap registers a crash/rejoin cycle with half-period period for a worker
// node and returns the plan for chaining: the node runs for period, crashes,
// reboots period later, and repeats.
func (p *Plan) Flap(node string, period time.Duration) *Plan {
	if p.Flaps == nil {
		p.Flaps = map[string]time.Duration{}
	}
	p.Flaps[node] = period
	return p
}

// SlowConsumer registers a per-packet consumption delay for a client
// endpoint ("client1", or Any) and returns the plan for chaining.
func (p *Plan) SlowConsumer(endpoint string, d time.Duration) *Plan {
	if p.Consumers == nil {
		p.Consumers = map[string]time.Duration{}
	}
	p.Consumers[endpoint] = d
	return p
}

// Disconnect registers a deterministic mid-stream connection drop after n
// delivered frames on the connection named name (a session ID, or Any) and
// returns the plan for chaining.
func (p *Plan) Disconnect(name string, after int) *Plan {
	p.Disconnects = append(p.Disconnects, DisconRule{Name: name, After: after})
	return p
}

// Hang marks a connection name (or Any) as an accepted-but-silent peer and
// returns the plan for chaining.
func (p *Plan) Hang(name string) *Plan {
	if p.Hangs == nil {
		p.Hangs = map[string]bool{}
	}
	p.Hangs[name] = true
	return p
}

// TearAppend registers a torn WAL append — the nth append (1-based) to a
// segment file matching path is cut mid-record — and returns the plan for
// chaining.
func (p *Plan) TearAppend(path string, n int) *Plan {
	p.Torns = append(p.Torns, TornRule{Path: path, N: n})
	return p
}

// FailFsync registers a one-shot fsync failure for WAL files matching path
// (or Any) and returns the plan for chaining.
func (p *Plan) FailFsync(path string) *Plan {
	p.FsyncFails = append(p.FsyncFails, path)
	return p
}

// ParseRule adds one textual fault rule to the plan (the -fault flag of
// cmd/viracocha-server). Formats:
//
//	crash:NODE@DUR           fail-stop NODE at clock time DUR ("crash:w1@3s")
//	drop:FROM>TO:KIND:PROB   drop matching messages ("drop:w1>scheduler:wdone:1")
//	dup:FROM>TO:KIND:PROB    duplicate matching messages
//	delay:FROM>TO:KIND:DUR   delay matching messages
//	read:DATASET:STEP:BLOCK:N  fail N matching reads (N<0: all; STEP/BLOCK -1: any)
//	corrupt:DATASET:STEP:BLOCK:N  corrupt N matching reads (device re-reads once)
//	slow:ENDPOINT@DUR        delay ENDPOINT's packet consumption by DUR ("slow:client1@2s")
//	discon:NODE:AFTER_MSGS   drop NODE's connection after AFTER_MSGS delivered frames ("discon:sess-1:5")
//	hang:NODE                NODE's peer accepts but never drains ("hang:sess-1")
//	recover:NODE@DUR         reboot a crashed NODE at clock time DUR ("recover:w1@5s")
//	flap:NODE:PERIOD         crash/rejoin NODE every PERIOD ("flap:w1:500ms")
//	torn:PATH:N              tear the Nth WAL append to PATH mid-record ("torn:*:5")
//	fsyncfail:PATH           fail PATH's next WAL fsync once ("fsyncfail:*")
//
// FROM, TO, KIND, DATASET, ENDPOINT, NODE and PATH accept "*" as a wildcard.
func (p *Plan) ParseRule(spec string) error {
	kind, rest, ok := strings.Cut(spec, ":")
	if !ok {
		return fmt.Errorf("faults: rule %q: missing ':'", spec)
	}
	parseLink := func(rest string, n int) (from, to string, parts []string, err error) {
		fields := strings.Split(rest, ":")
		if len(fields) != n {
			return "", "", nil, fmt.Errorf("faults: rule %q: want %d fields, got %d", spec, n, len(fields))
		}
		from, to, ok := strings.Cut(fields[0], ">")
		if !ok {
			return "", "", nil, fmt.Errorf("faults: rule %q: link must be FROM>TO", spec)
		}
		return from, to, fields[1:], nil
	}
	switch kind {
	case "crash":
		node, at, ok := strings.Cut(rest, "@")
		if !ok {
			return fmt.Errorf("faults: rule %q: crash must be crash:NODE@DUR", spec)
		}
		d, err := time.ParseDuration(at)
		if err != nil {
			return fmt.Errorf("faults: rule %q: %w", spec, err)
		}
		p.CrashAt(node, d)
	case "drop", "dup":
		from, to, fields, err := parseLink(rest, 3)
		if err != nil {
			return err
		}
		prob, err := strconv.ParseFloat(fields[1], 64)
		if err != nil || prob < 0 || prob > 1 {
			return fmt.Errorf("faults: rule %q: bad probability %q", spec, fields[1])
		}
		r := LinkRule{From: from, To: to, Kind: fields[0]}
		if kind == "drop" {
			r.Drop = prob
		} else {
			r.Duplicate = prob
		}
		p.Links = append(p.Links, r)
	case "delay":
		from, to, fields, err := parseLink(rest, 3)
		if err != nil {
			return err
		}
		d, err := time.ParseDuration(fields[1])
		if err != nil {
			return fmt.Errorf("faults: rule %q: %w", spec, err)
		}
		p.Links = append(p.Links, LinkRule{From: from, To: to, Kind: fields[0], Delay: d})
	case "read", "corrupt":
		fields := strings.Split(rest, ":")
		if len(fields) != 4 {
			return fmt.Errorf("faults: rule %q: %s must be %s:DATASET:STEP:BLOCK:N", spec, kind, kind)
		}
		step, err1 := strconv.Atoi(fields[1])
		block, err2 := strconv.Atoi(fields[2])
		n, err3 := strconv.Atoi(fields[3])
		if err1 != nil || err2 != nil || err3 != nil {
			return fmt.Errorf("faults: rule %q: STEP, BLOCK and N must be integers", spec)
		}
		r := ReadRule{Dataset: fields[0], Step: step, Block: block, Fail: n}
		if kind == "read" {
			p.Reads = append(p.Reads, r)
		} else {
			p.Corrupts = append(p.Corrupts, r)
		}
	case "slow":
		ep, at, ok := strings.Cut(rest, "@")
		if !ok {
			return fmt.Errorf("faults: rule %q: slow must be slow:ENDPOINT@DUR", spec)
		}
		d, err := time.ParseDuration(at)
		if err != nil {
			return fmt.Errorf("faults: rule %q: %w", spec, err)
		}
		p.SlowConsumer(ep, d)
	case "discon":
		name, n, ok := strings.Cut(rest, ":")
		if !ok {
			return fmt.Errorf("faults: rule %q: discon must be discon:NODE:AFTER_MSGS", spec)
		}
		after, err := strconv.Atoi(n)
		if err != nil || after < 0 {
			return fmt.Errorf("faults: rule %q: bad frame count %q", spec, n)
		}
		p.Disconnect(name, after)
	case "hang":
		if rest == "" {
			return fmt.Errorf("faults: rule %q: hang must be hang:NODE", spec)
		}
		p.Hang(rest)
	case "recover":
		node, at, ok := strings.Cut(rest, "@")
		if !ok || node == "" {
			return fmt.Errorf("faults: rule %q: recover must be recover:NODE@DUR", spec)
		}
		d, err := time.ParseDuration(at)
		if err != nil {
			return fmt.Errorf("faults: rule %q: %w", spec, err)
		}
		p.RecoverAt(node, d)
	case "flap":
		node, per, ok := strings.Cut(rest, ":")
		if !ok || node == "" {
			return fmt.Errorf("faults: rule %q: flap must be flap:NODE:PERIOD", spec)
		}
		d, err := time.ParseDuration(per)
		if err != nil {
			return fmt.Errorf("faults: rule %q: %w", spec, err)
		}
		if d <= 0 {
			return fmt.Errorf("faults: rule %q: period must be positive", spec)
		}
		p.Flap(node, d)
	case "torn":
		// PATH may itself contain colons, so the count is split off the
		// right-hand end.
		i := strings.LastIndex(rest, ":")
		if i <= 0 {
			return fmt.Errorf("faults: rule %q: torn must be torn:PATH:N", spec)
		}
		path, nstr := rest[:i], rest[i+1:]
		n, err := strconv.Atoi(nstr)
		if err != nil || n < 1 {
			return fmt.Errorf("faults: rule %q: bad append count %q (want >= 1)", spec, nstr)
		}
		p.TearAppend(path, n)
	case "fsyncfail":
		if rest == "" {
			return fmt.Errorf("faults: rule %q: fsyncfail must be fsyncfail:PATH", spec)
		}
		p.FailFsync(rest)
	default:
		return fmt.Errorf("faults: rule %q: unknown kind %q", spec, kind)
	}
	return nil
}

// Injector is a compiled Plan: it implements comm.FaultInjector and the
// storage read-fault hook. The zero Injector (or nil) injects nothing.
type Injector struct {
	plan Plan

	mu         sync.Mutex
	linkSeq    map[string]uint64 // per-link message counter
	readHit    []int             // per-read-rule consumed budget
	corruptHit []int             // per-corrupt-rule consumed budget
	connFrames map[string]int    // per-connection delivered-frame counter
	disconUsed []bool            // per-discon-rule one-shot burn
	walSeq     []int             // per-torn-rule matched-append counter
	tornUsed   []bool            // per-torn-rule one-shot burn
	fsyncUsed  []bool            // per-fsyncfail-rule one-shot burn
}

// New compiles a plan. A nil plan yields a nil injector, which callers treat
// as "no faults".
func New(p *Plan) *Injector {
	if p == nil {
		return nil
	}
	return &Injector{
		plan:       *p,
		linkSeq:    map[string]uint64{},
		readHit:    make([]int, len(p.Reads)),
		corruptHit: make([]int, len(p.Corrupts)),
		connFrames: map[string]int{},
		disconUsed: make([]bool, len(p.Disconnects)),
		walSeq:     make([]int, len(p.Torns)),
		tornUsed:   make([]bool, len(p.Torns)),
		fsyncUsed:  make([]bool, len(p.FsyncFails)),
	}
}

func matchStr(pat, v string) bool { return pat == "" || pat == Any || pat == v }
func matchInt(pat, v int) bool    { return pat < 0 || pat == v }

// OnSend implements comm.FaultInjector: it decides the fate of one message
// entering the from→to link. Decisions are deterministic per (seed, link,
// message index on that link).
func (in *Injector) OnSend(from, to string, m comm.Message) comm.SendFault {
	if in == nil || len(in.plan.Links) == 0 {
		return comm.SendFault{}
	}
	link := from + "\x00" + to
	in.mu.Lock()
	seq := in.linkSeq[link]
	in.linkSeq[link] = seq + 1
	in.mu.Unlock()
	for _, r := range in.plan.Links {
		if !matchStr(r.From, from) || !matchStr(r.To, to) || !matchStr(r.Kind, m.Kind) {
			continue
		}
		var f comm.SendFault
		f.ExtraDelay = r.Delay
		if r.Drop > 0 && in.roll(link, seq, 1) < r.Drop {
			f.Drop = true
		}
		if r.Duplicate > 0 && in.roll(link, seq, 2) < r.Duplicate {
			f.Duplicate = true
		}
		return f
	}
	return comm.SendFault{}
}

// CrashTime reports the planned fail-stop time of a node.
func (in *Injector) CrashTime(node string) (time.Duration, bool) {
	if in == nil {
		return 0, false
	}
	at, ok := in.plan.Crashes[node]
	return at, ok
}

// RecoverTime reports the planned reboot-and-rejoin time of a node.
func (in *Injector) RecoverTime(node string) (time.Duration, bool) {
	if in == nil {
		return 0, false
	}
	at, ok := in.plan.Recovers[node]
	return at, ok
}

// FlapPeriod reports the planned crash/rejoin half-period of a node.
func (in *Injector) FlapPeriod(node string) (time.Duration, bool) {
	if in == nil {
		return 0, false
	}
	d, ok := in.plan.Flaps[node]
	return d, ok
}

// OnRead is the storage hook: a non-nil error fails the read of id.
func (in *Injector) OnRead(id grid.BlockID) error {
	if in == nil || len(in.plan.Reads) == 0 {
		return nil
	}
	in.mu.Lock()
	defer in.mu.Unlock()
	for i, r := range in.plan.Reads {
		if !matchStr(r.Dataset, id.Dataset) || !matchInt(r.Step, id.Step) || !matchInt(r.Block, id.Block) {
			continue
		}
		if r.Fail >= 0 && in.readHit[i] >= r.Fail {
			continue
		}
		in.readHit[i]++
		return fmt.Errorf("faults: injected read error for %s step %d block %d", id.Dataset, id.Step, id.Block)
	}
	return nil
}

// OnCorrupt is the storage integrity hook: true marks the fetched data of id
// as corrupted, making the device's checksum verification fail.
func (in *Injector) OnCorrupt(id grid.BlockID) bool {
	if in == nil || len(in.plan.Corrupts) == 0 {
		return false
	}
	in.mu.Lock()
	defer in.mu.Unlock()
	for i, r := range in.plan.Corrupts {
		if !matchStr(r.Dataset, id.Dataset) || !matchInt(r.Step, id.Step) || !matchInt(r.Block, id.Block) {
			continue
		}
		if r.Fail >= 0 && in.corruptHit[i] >= r.Fail {
			continue
		}
		in.corruptHit[i]++
		return true
	}
	return false
}

// ConsumerDelay reports the planned per-packet consumption delay for a
// client endpoint (exact name first, then the Any wildcard).
func (in *Injector) ConsumerDelay(endpoint string) time.Duration {
	if in == nil || len(in.plan.Consumers) == 0 {
		return 0
	}
	if d, ok := in.plan.Consumers[endpoint]; ok {
		return d
	}
	return in.plan.Consumers[Any]
}

// OnConnFrame advances the delivered-frame counter of the connection named
// name and reports whether a disconnect rule fires here: the TCP bridge
// consults it before each delivery and, on true, severs the connection
// instead. Each rule burns after firing once; the counter keeps running
// across reconnects, so a second identical rule drops the resumed stream at
// a later absolute frame count.
func (in *Injector) OnConnFrame(name string) bool {
	if in == nil || len(in.plan.Disconnects) == 0 {
		return false
	}
	in.mu.Lock()
	defer in.mu.Unlock()
	count := in.connFrames[name]
	in.connFrames[name] = count + 1
	for i, r := range in.plan.Disconnects {
		if in.disconUsed[i] || !matchStr(r.Name, name) {
			continue
		}
		if count >= r.After {
			in.disconUsed[i] = true
			return true
		}
	}
	return false
}

// matchPath matches a rule path against a file path: exact, wildcard, or
// base-name match, so rules can name "wal-00000001.log" without knowing the
// WAL directory.
func matchPath(pat, path string) bool {
	return matchStr(pat, path) || pat == filepath.Base(path)
}

// OnWALAppend is the wal package's torn-write hook: it advances each matching
// torn rule's append counter and reports whether one fires here, in which
// case the append is cut mid-record and the log fails as a power loss would.
func (in *Injector) OnWALAppend(path string) bool {
	if in == nil || len(in.plan.Torns) == 0 {
		return false
	}
	in.mu.Lock()
	defer in.mu.Unlock()
	fire := false
	for i, r := range in.plan.Torns {
		if !matchPath(r.Path, path) {
			continue
		}
		in.walSeq[i]++
		if !in.tornUsed[i] && in.walSeq[i] >= r.N {
			in.tornUsed[i] = true
			fire = true
		}
	}
	return fire
}

// OnWALSync is the wal package's fsync hook: the first un-burned matching
// fsyncfail rule fails this flush with an injected error.
func (in *Injector) OnWALSync(path string) error {
	if in == nil || len(in.plan.FsyncFails) == 0 {
		return nil
	}
	in.mu.Lock()
	defer in.mu.Unlock()
	for i, pat := range in.plan.FsyncFails {
		if in.fsyncUsed[i] || !matchPath(pat, path) {
			continue
		}
		in.fsyncUsed[i] = true
		return fmt.Errorf("faults: injected fsync failure for %s", filepath.Base(path))
	}
	return nil
}

// Hanged reports whether the connection named name is planned as an
// accepted-but-silent peer (exact name first, then the Any wildcard).
func (in *Injector) Hanged(name string) bool {
	if in == nil || len(in.plan.Hangs) == 0 {
		return false
	}
	return in.plan.Hangs[name] || in.plan.Hangs[Any]
}

// roll returns a deterministic uniform value in [0,1) for decision slot
// `salt` of message `seq` on `link`.
func (in *Injector) roll(link string, seq, salt uint64) float64 {
	h := in.plan.Seed
	for i := 0; i < len(link); i++ {
		h = (h ^ uint64(link[i])) * 0x100000001b3
	}
	h ^= seq*0x9e3779b97f4a7c15 + salt
	return float64(splitmix64(h)>>11) / float64(1<<53)
}

// Mix64 exposes the splitmix64 finalizer: a strong, stateless 64-bit mixer.
// Callers that need seeded-but-reproducible pseudo-random values outside the
// injector (seeded churn timelines) hash a (seed, counter) pair through it
// instead of keeping their own generator state.
func Mix64(x uint64) uint64 { return splitmix64(x) }

// splitmix64 is the finalizer of the splitmix64 PRNG: a strong 64-bit mixer.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// Mutate flips up to n bytes of data in place, choosing positions and values
// from the seeded generator — the codec fuzzer uses it to derive
// fault-plan-style corruptions of valid frames deterministically.
func Mutate(seed uint64, data []byte, n int) {
	if len(data) == 0 {
		return
	}
	h := seed
	for i := 0; i < n; i++ {
		h = splitmix64(h)
		pos := int(h % uint64(len(data)))
		h = splitmix64(h)
		data[pos] ^= byte(h)
	}
}

var _ comm.FaultInjector = (*Injector)(nil)
