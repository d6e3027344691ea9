//go:build plants

package r2c2

// TestPlants scores every test of the module against a table of one-line
// plants: small edits to non-test code, each breaking one mechanism. For
// each plant it copies the module into a temporary directory, applies the
// edit, builds the test binary of every package that can see the edited
// file and runs each test, example and fuzz seed corpus in a process of its
// own, so a panicking test cannot hide the tests after it. A test kills a
// plant when it fails, panics or times out on the planted copy and passes
// on an unplanted copy built in the same run. A plant that only a digest
// kills, or that nothing kills, fails its subtest.
//
// Run it with `make plants`; one plant with
// `go test -tags plants -v -run 'TestPlants/headroom' .`. The report goes
// to standard output: each plant's killers, the plant × test matrix, each
// test's unique kills and the tests that kill nothing.
//
// Binaries are built with -trimpath, so a package whose test binary does
// not link the planted package would link byte for byte what the unplanted
// copy links: it keeps its unplanted verdicts and is not rerun.
// The root package reads the module's source, so it always reruns. Tests of
// packages that link the wall-clock emulator are rerun once when they do not
// pass, and kill only if they fail both times.

import (
	"bytes"
	"context"
	"fmt"
	"io/fs"
	"os"
	"os/exec"
	"path"
	"path/filepath"
	"regexp"
	"runtime"
	"slices"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"
)

type plant struct {
	name string // subtest name
	mech string // the mechanism it breaks
	file string // slash path from the module root
	old  string // occurs exactly once in file
	new  string
}

// plants holds one row per plant: the one-line plants of earlier plant
// tables, plants in the areas the reference oracles guard, and one plant or
// more per paper mechanism and per package.
var plants = []plant{
	// From the plant tables in CHANGES.md and ROADMAP.md's baseline.
	{"headroom", "§3.3.2 headroom: the water-fill ignores it",
		"internal/waterfill/waterfill.go", "cap := a.cfg.Capacity * (1 - a.cfg.Headroom)", "cap := a.cfg.Capacity"},
	{"droptail", "drop-tail queue: a packet that exactly fills the queue is dropped",
		"internal/sim/net.go", "p.queued+pkt.SizeBytes > n.Cfg.QueueBytes", "p.queued+pkt.SizeBytes >= n.Cfg.QueueBytes"},
	{"stageless-emit", "event order: same-instant events run latest emission first",
		"internal/sim/wheel.go", "return a.emit < b.emit", "return a.emit > b.emit"},
	{"arrival-emit-now", "event order: an arrival is stamped with its arming instant, not the end of its serialisation",
		"internal/sim/net.go", "h.emit = p.freeAt", "h.emit = n.Eng.now"},
	{"fill-fma", "cross-machine floats: a per-link sum arm64 fuses into a multiply-add",
		"internal/waterfill/waterfill.go", "a.activeW[lid] += float64(f.Weight * f.Phi.Frac[j])", "a.activeW[lid] += f.Weight * f.Phi.Frac[j]"},
	{"phi-links-unsorted", "φ-vectors: links left in map order",
		"internal/routing/phi.go", "return phi.Links[i] < phi.Links[j]", "return false"},
	{"wallclock-emu", "virtual clock: a host-clock read outside emu/clock.go",
		"internal/emu/emu.go", "func diverges(old, new uint32) bool {", "func diverges(old, new uint32) bool {\n\t_ = time.Now()"},
	{"unit-suffix", "unit suffixes: a bare exported rate field",
		"internal/sim/net.go", "type NetConfig struct {", "type NetConfig struct {\n\tRate float64"},
	{"port-cache-line", "the port record fits one cache line",
		"internal/sim/net.go", "fifo pktQueue // FIFO discipline", "fifo, spare pktQueue // FIFO discipline"},
	{"bcast-no-retransmit", "§3.2 broadcast loss recovery: a dropped broadcast is never sent again",
		"internal/sim/r2c2.go", "const maxBcastRetries = 3", "const maxBcastRetries = 0"},

	// What the reference oracles guard: the wheel, the engine, shard
	// handoffs and successor masks.
	{"wheel-cancel-stale", "timer wheel: a stale handle cancels its node's next occupant",
		"internal/sim/wheel.go", "if n.level == freeLevel || n.ev.seq != h.seq || n.ev.kind() == evDead {", "if n.level == freeLevel || n.ev.kind() == evDead {"},
	{"wheel-cancel-staged", "timer wheel: a cancelled event already staged still fires",
		"internal/sim/wheel.go", "n.ev.tk = n.ev.tk&^0xff | uint32(evDead)", "n.ev.tk = n.ev.tk&^0xff | n.ev.tk&0xff"},
	{"wheel-top-level", "timer wheel: the top level never cascades",
		"internal/sim/wheel.go", "for l := 1; l < wheelLevels; l++ {", "for l := 1; l < wheelLevels-1; l++ {"},
	{"wheel-cascade-unsorted", "timer wheel: events a cascade stages into the cursor's slot run unsorted",
		"internal/sim/wheel.go", "// Cascading landed events directly in the cursor's own slot.\n\t\t\tw.sortRun()", "// Cascading landed events directly in the cursor's own slot."},
	{"engine-horizon", "engine: an event exactly at the horizon waits for the next Run",
		"internal/sim/engine.go", "if idx == 0 || w.staged[w.top].at > until {", "if idx == 0 || w.staged[w.top].at >= until {"},
	{"handoff-link-order", "§15 sharding: handoffs of one instant lose their link order",
		"internal/sim/shard.go", "return cmp.Compare(a.link, b.link)", "return 0"},
	{"port-masks-wide", "successor masks: a vertex with more than eight ports picks the wrong link",
		"internal/topology/topology.go", "return m.out[int(m.off[v])+8*j+int(selectTab[b][i])]", "return m.out[int(m.off[v])+7*j+int(selectTab[b][i])]"},

	// The paper's mechanisms, then the other packages.
	{"phi-split-ignored", "§3.3 Figure 4: the fill ignores a flow's routing split",
		"internal/waterfill/waterfill.go", "a.activeW[lid] += float64(f.Weight * f.Phi.Frac[j])", "a.activeW[lid] += float64(f.Weight * f.Phi.Frac[j] / f.Phi.Frac[j])"},
	{"activew-noweight", "§3.3 weighted max-min: a flow's weight left out of its links' active weight",
		"internal/waterfill/waterfill.go", "a.activeW[lid] += float64(f.Weight * f.Phi.Frac[j])", "a.activeW[lid] += f.Phi.Frac[j]"},
	{"demand-level-noweight", "§3.3.2 demand limits: a flow freezes at its demand, not demand/weight",
		"internal/waterfill/waterfill.go", "level: f.Demand / f.Weight}", "level: f.Demand}"},
	{"hostlocal-zero", "host-local flows: an unlimited one gets no rate",
		"internal/waterfill/waterfill.go", "\treturn cfg.Capacity\n}", "\treturn 0\n}"},
	{"rho-batching", "§3.3.2 ρ batching: rates are recomputed every 2ρ",
		"internal/sim/r2c2.go", "r.Net.Eng.After(r.Cfg.Recompute, r.recomputeTick)", "r.Net.Eng.After(2*r.Cfg.Recompute, r.recomputeTick)"},
	{"eq1-demand", "§3.3.2 Eq. 1: the demand estimate drops the queue term",
		"internal/core/core.go", "raw := allocatedBits + queuedBits/e.period.Seconds()", "raw := allocatedBits + 0*queuedBits/e.period.Seconds()"},
	{"demand-threshold", "Eq. 1 updates: a new estimate is broadcast only past 15x, not 15 %",
		"internal/emu/emu.go", "return float64(hi-lo) > 0.15*float64(lo)", "return float64(hi-lo) > 15*float64(lo)"},
	{"tree-rotation", "§3.2 tree choice: every broadcast of a source takes tree 0",
		"internal/core/node.go", "n.tree = (n.tree + 1) % n.trees", "n.tree = 0 % n.trees"},
	{"tree-build-first-parent", "§3.2 tree choice: every tree takes each node's first shortest-path parent",
		"internal/topology/broadcast.go", "pick := c[rng.Intn(len(c))]", "pick := c[0*rng.Intn(len(c))]"},
	{"retransmit-same-tree", "§3.2 loss recovery: a retransmission repeats the tree that dropped it",
		"internal/core/node.go", "b.Tree = n.nextTree()", "n.nextTree()"},
	{"rps-first-successor", "§2.2.1 RPS (Figure 3): φ puts a hop's whole mass on its first minimal successor",
		"internal/routing/phi.go", "lid := succ.Pick(v, i)\n\t\t\t\tdense[lid] += share", "lid := succ.Pick(v, 0)\n\t\t\t\tdense[lid] += share"},
	{"phi-rps-mass", "φ for RPS: mass reaching a node over two parents keeps only the last share",
		"internal/routing/phi.go", "nodeMass[to] += share", "nodeMass[to] = share"},
	{"phi-vlb-norm", "φ for VLB: the source half normalised over N−1 waypoints",
		"internal/routing/phi.go", "t.sprayMass(s, topology.NodeID(w), 1/float64(n), dense)", "t.sprayMass(s, topology.NodeID(w), 1/float64(n-1), dense)"},
	{"phi-wlb-prob", "φ for WLB: the short way taken with probability δ/k",
		"internal/routing/phi.go", "prob: float64(k-mag) / float64(k)}", "prob: float64(mag) / float64(k)}"},
	{"phi-dor-order", "DOR: the last dimension is corrected first",
		"internal/routing/phi.go", "for d := 0; d < dims; d++ {\n\t\t\tif off[d] == 0 {", "for d := dims - 1; d >= 0; d-- {\n\t\t\tif off[d] == 0 {"},
	{"phi-cache-protocol", "φ cache: keyed without the protocol",
		"internal/routing/routing.go", "key := phiKey{p: p, src: src, dst: dst}", "key := phiKey{src: src, dst: dst}"},
	{"vlb-path-waypoint", "VLB path sampling: the waypoint is always the destination",
		"internal/routing/path.go", "w := topology.NodeID(rng.Intn(t.g.Nodes()))", "w := dst"},
	{"pacing", "§3.1 pacing: the token bucket runs at twice the allocated rate",
		"internal/sim/r2c2.go", "gap := simtime.Time(float64(size*8) / sf.rate", "gap := simtime.Time(float64(size*4) / sf.rate"},
	{"reorder-duplicate", "reorder window: the last in-order packet is accepted again",
		"internal/sim/reorder.go", "if seq < w.next {", "if seq+1 < w.next {"},
	{"reorder-ring-short", "reorder window: the ring grows one word short of the span",
		"internal/sim/reorder.go", "for n < span {", "for n < span-1 {"},
	{"fault-detection", "§3.2 failure detection: the reroute never swaps in the degraded fabric",
		"internal/sim/r2c2.go", "if !r.Faults.Due() {", "if r.Faults.Due() {"},
	{"state-repair-dead", "§3.2 failure state: a dead node's cable may be repaired",
		"internal/faults/state.go", "case s.dead[e.A] || s.dead[e.B]:", "case e.Kind != LinkRepair && (s.dead[e.A] || s.dead[e.B]):"},
	{"state-no-rollback", "§3.2 failure state: a refused partitioning change keeps its failed links",
		"internal/faults/state.go", "s.links[lid] = !s.links[lid]", "_ = lid"},
	{"state-drop-unchecked", "fault rules: a drop probability outside [0,1] is accepted",
		"internal/faults/state.go", "case e.Kind == LinkDrop && !(e.DropProb >= 0 && e.DropProb <= 1): // NaN too", "case false:"},
	{"validate-no-union", "fault schedules: Validate leaves the union of downed cables and crashed nodes unchecked",
		"internal/faults/faults.go", `return fmt.Errorf("faults: schedule union partitions the rack: %w", err)`, "_ = err"},
	{"shard-lookahead", "§15 sharding: the lookahead window is twice the propagation delay",
		"internal/sim/shard.go", "return max(min(netCfg.PropDelay, notify), 1)", "return max(min(2*netCfg.PropDelay, notify), 1)"},
	{"torus-distance", "torus distances: the wrap-around hop count is one too long",
		"internal/topology/topology.go", "h = min(h, int32(g.k)-h)", "h = min(h, int32(g.k)-h+1)"},
	{"view-table-drop", "view table: a deletion leaves an entry stranded past the hole",
		"internal/core/core.go", "if (j-t.home(t.slots[j].id))&mask >= (j-i)&mask {", "if (j-t.home(t.slots[j].id))&mask > (j-i)&mask {"},
	{"view-table-wrap", "view table: a deletion misjudges entries whose cluster wraps past the table's end",
		"internal/core/core.go", "if (j-t.home(t.slots[j].id))&mask >= (j-i)&mask {", "if j-t.home(t.slots[j].id) >= (j-i)&mask {"},
	{"view-update-swap", "§3.1 views: a demand update is applied as a route change",
		"internal/core/core.go", "if b.Event == wire.EventDemandUpdate {", "if b.Event != wire.EventDemandUpdate {"},
	{"visibility-update-swap", "§3.1 views (visibility rows): a demand update is applied as a route change",
		"internal/core/visibility.go", "if b.Event == wire.EventDemandUpdate {", "if b.Event != wire.EventDemandUpdate {"},
	{"degraded-link-map", "§3.2 degraded fabric: surviving links map to the wrong physical links",
		"internal/topology/topology.go", "mapping = append(mapping, LinkID(id))", "mapping = append(mapping, LinkID(len(mapping)))"},
	{"torus-no-wrap", "torus construction: no wrap-around links",
		"internal/topology/torus.go", "c = (c + k) % k", "c += 0"},
	{"torus-offset-tie", "torus offsets: a half-ring tie goes backwards from even coordinates",
		"internal/topology/torus.go", "case 2*delta == g.k && ca%2 == 1:", "case 2*delta == g.k && ca%2 == 0:"},
	{"incremental-headroom", "incremental water-fill: headroom ignored",
		"internal/waterfill/incremental.go", "capEff:    cfg.Capacity * (1 - cfg.Headroom),", "capEff:    cfg.Capacity,"},
	{"flow-table-grow", "flow table: a row grows one slot short",
		"internal/sim/flowrec.go", "make([]flowSlot[T], seq+1-len(row))", "make([]flowSlot[T], seq-len(row))"},
	{"tcp-srtt-gain", "TCP baseline: the smoothed RTT weighs a new sample 1/4, not 1/8",
		"internal/sim/tcp.go", "s.srtt = (7*s.srtt + rtt) / 8", "s.srtt = (3*s.srtt + rtt) / 4"},
	{"tcp-fast-retransmit", "TCP baseline: fast retransmit waits for four duplicate ACKs",
		"internal/sim/tcp.go", "if s.dupAcks == 3 {", "if s.dupAcks == 4 {"},
	{"transmit-time-floor", "serialisation time rounds down, not up",
		"internal/simtime/simtime.go", "if float64(t) < ps {", "if float64(t) < ps-1 {"},
	{"poisson-self-flow", "traffic generator: a Poisson flow may be sent to its own source",
		"internal/trafficgen/trafficgen.go", "\t\tif dst >= src {\n\t\t\tdst++\n\t\t}\n\t\tarrivals[i] = Arrival{", "\t\tif dst > src {\n\t\t\tdst++\n\t\t}\n\t\tarrivals[i] = Arrival{"},
	{"wire-dst", "wire format: a data header's destination is encoded as its source",
		"internal/wire/wire.go", "binary.BigEndian.PutUint16(b[9:], h.Dst)", "binary.BigEndian.PutUint16(b[9:], h.Src)"},
	{"percentile-rank", "statistics: percentiles ranked over n, not n−1",
		"internal/stats/stats.go", "rank := float64(p / 100 * float64(n-1))", "rank := float64(p / 100 * float64(n))"},
	{"broadcast-bytes", "§6 broadcast cost: one event reaches N, not N−1, nodes",
		"internal/broadcastmodel/broadcastmodel.go", "return float64(wire.BroadcastSize) * float64(n-1)", "return float64(wire.BroadcastSize) * float64(n)"},
}

// digests say that a result moved, not what broke: a plant only they kill
// escapes.
var digests = map[string]bool{
	"TestResultsGolden": true, "TestRegistryPaperGolden": true,
	"TestRunTwiceByteIdentical": true, "TestArrivalTiesByteIdentical": true,
}

// Verdicts, as the matrix prints them.
const (
	vPass    = '.'
	vFail    = 'F'
	vPanic   = 'P'
	vTimeout = 'T'
	vSkip    = 's'
)

type result struct {
	v       byte
	elapsed time.Duration
}

type pkgInfo struct {
	path  string          // import path
	dir   string          // slash path from the module root, "." for the root
	deps  map[string]bool // every package its test binaries link
	emu   bool            // links the wall-clock emulator
	tests []string        // top-level tests, examples and fuzz targets
	base  map[string]result
}

type harness struct {
	mod    string // module path
	base   string // unplanted copy
	pkgs   []*pkgInfo
	run    []plant                    // plants scored, in order
	matrix map[string]map[string]byte // plant → test ID → verdict
}

func TestPlants(t *testing.T) {
	src, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	h := &harness{base: t.TempDir(), matrix: map[string]map[string]byte{}}
	copyModule(t, src, h.base)
	h.listPackages(t)
	h.runBase(t)
	seen := map[string]bool{}
	for _, p := range plants {
		if seen[p.name] {
			t.Fatalf("plant %q listed twice", p.name)
		}
		seen[p.name] = true
		t.Run(p.name, func(t *testing.T) { h.score(t, p) })
	}
	h.report()
}

// copyModule copies the module tree, without version control, benchmark
// builds and outputs, or test binaries.
func copyModule(t *testing.T, from, to string) {
	skip := map[string]bool{".git": true, ".bench_build": true, "bench/out": true}
	err := filepath.WalkDir(from, func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		rel, _ := filepath.Rel(from, p)
		if skip[filepath.ToSlash(rel)] {
			return filepath.SkipDir
		}
		dst := filepath.Join(to, rel)
		if d.IsDir() {
			return os.MkdirAll(dst, 0o755)
		}
		if !d.Type().IsRegular() || strings.HasSuffix(p, ".test") {
			return nil
		}
		b, err := os.ReadFile(p)
		if err != nil {
			return err
		}
		return os.WriteFile(dst, b, 0o644)
	})
	if err != nil {
		t.Fatal(err)
	}
}

// listPackages reads, from the unplanted copy, every package with tests and
// what its test binaries link.
func (h *harness) listPackages(t *testing.T) {
	cmd := exec.Command("go", "list", "-test", "-f", "{{.ImportPath}}\t{{.Dir}}\t{{join .Deps \" \"}}", "./...")
	cmd.Dir = h.base
	out, err := cmd.Output()
	if err != nil {
		t.Fatalf("go list: %v", err)
	}
	dirs, deps := map[string]string{}, map[string]string{}
	for _, line := range strings.Split(strings.TrimSpace(string(out)), "\n") {
		f := strings.Split(line, "\t")
		if len(f) != 3 || strings.Contains(f[0], " ") {
			continue // a package recompiled for a test binary
		}
		if p, ok := strings.CutSuffix(f[0], ".test"); ok {
			deps[p] = f[2]
		} else {
			dirs[f[0]] = f[1]
		}
		if h.mod == "" || len(f[0]) < len(h.mod) {
			h.mod = f[0] // the shortest import path is the root package's
		}
	}
	for p, d := range deps {
		rel, _ := filepath.Rel(h.base, dirs[p])
		pi := &pkgInfo{path: p, dir: filepath.ToSlash(rel), deps: map[string]bool{p: true}}
		for _, dep := range strings.Fields(d) {
			if !strings.HasPrefix(dep, "[") {
				pi.deps[dep] = true
			}
		}
		h.pkgs = append(h.pkgs, pi)
	}
	for _, pi := range h.pkgs {
		pi.emu = pi.deps[h.mod+"/internal/emu"]
	}
	sort.Slice(h.pkgs, func(i, j int) bool { return h.pkgs[i].dir < h.pkgs[j].dir })
}

// build compiles the test binaries of pkgs in tree into bins and returns
// them by import path. Packages that share a last path element go to
// separate invocations, since `go test -c -o dir/` names binaries by it.
func build(tree, bins string, pkgs []*pkgInfo) (map[string]string, error) {
	out := map[string]string{}
	for rest := pkgs; len(rest) > 0; {
		used := map[string]bool{}
		var batch, next []*pkgInfo
		for _, p := range rest {
			if base := path.Base(p.path); !used[base] {
				used[base] = true
				batch = append(batch, p)
			} else {
				next = append(next, p)
			}
		}
		dir, err := os.MkdirTemp(bins, "b")
		if err != nil {
			return nil, err
		}
		args := []string{"test", "-c", "-trimpath", "-o", dir + string(filepath.Separator)}
		for _, p := range batch {
			args = append(args, p.path)
			out[p.path] = filepath.Join(dir, path.Base(p.path)+".test")
		}
		cmd := exec.Command("go", args...)
		cmd.Dir = tree
		if msg, err := cmd.CombinedOutput(); err != nil {
			return nil, fmt.Errorf("go test -c: %v\n%s", err, msg)
		}
		rest = next
	}
	return out, nil
}

var panicLine = regexp.MustCompile(`(?m)^panic: `)

// memCap bounds a test process's virtual memory, in KiB: a Go test binary
// maps about 1.5 GiB before its heap grows.
const memCap = "ulimit -v 3145728"

// runOne runs one test of a binary in a process of its own, with the
// package directory as its working directory. A plant can turn a loop into
// one that appends forever: the shell's cap makes such a test fail on its
// own instead of taking the machine's memory.
func runOne(bin, dir, name string, timeout time.Duration) result {
	ctx, cancel := context.WithTimeout(context.Background(), timeout)
	defer cancel()
	cmd := exec.CommandContext(ctx, "/bin/sh", "-c", memCap+` && exec "$0" "$@"`,
		bin, "-test.run", "^"+name+"$", "-test.count=1", "-test.v")
	cmd.Dir = dir
	cmd.WaitDelay = time.Second
	start := time.Now()
	out, err := cmd.CombinedOutput()
	r := result{elapsed: time.Since(start)}
	switch {
	case ctx.Err() != nil:
		r.v = vTimeout
	case err == nil && bytes.Contains(out, []byte("--- SKIP: "+name+" ")):
		r.v = vSkip
	case err == nil:
		r.v = vPass
	case panicLine.Match(out):
		r.v = vPanic
	default:
		r.v = vFail
	}
	return r
}

type job struct {
	pkg      *pkgInfo
	bin, dir string
	name     string
	timeout  time.Duration
}

// runAll runs every job on one worker per CPU; emulator-linked tests that
// do not pass run a second time, and the second verdict stands if it passes.
func runAll(jobs []job) map[string]result {
	res := make(map[string]result, len(jobs))
	var mu sync.Mutex
	ch := make(chan job)
	var wg sync.WaitGroup
	for range runtime.NumCPU() {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := range ch {
				r := runOne(j.bin, j.dir, j.name, j.timeout)
				if r.v != vPass && r.v != vSkip && j.pkg.emu {
					if again := runOne(j.bin, j.dir, j.name, j.timeout); again.v == vPass {
						r = again
					}
				}
				mu.Lock()
				res[testID(j.pkg, j.name)] = r
				mu.Unlock()
			}
		}()
	}
	for _, j := range jobs {
		ch <- j
	}
	close(ch)
	wg.Wait()
	return res
}

func testID(p *pkgInfo, name string) string {
	if p.dir == "." {
		return "root." + name
	}
	return p.dir + "." + name
}

// runBase builds, lists and runs every test of the unplanted copy.
func (h *harness) runBase(t *testing.T) {
	bins, err := build(h.base, t.TempDir(), h.pkgs)
	if err != nil {
		t.Fatalf("unplanted copy: %v", err)
	}
	var jobs []job
	for _, p := range h.pkgs {
		cmd := exec.Command(bins[p.path], "-test.list", ".")
		cmd.Dir = filepath.Join(h.base, p.dir)
		out, err := cmd.Output()
		if err != nil {
			t.Fatalf("%s -test.list: %v", p.path, err)
		}
		for _, name := range strings.Fields(string(out)) {
			if !strings.HasPrefix(name, "Benchmark") {
				p.tests = append(p.tests, name)
				jobs = append(jobs, job{p, bins[p.path], cmd.Dir, name, 2 * time.Minute})
			}
		}
	}
	res := runAll(jobs)
	for _, p := range h.pkgs {
		p.base = map[string]result{}
		for _, name := range p.tests {
			r := res[testID(p, name)]
			p.base[name] = r
			if r.v != vPass && r.v != vSkip {
				t.Errorf("%s fails on the unplanted copy (%c): it kills nothing", testID(p, name), r.v)
			}
		}
	}
}

// score applies one plant to a fresh copy and records every test's verdict.
// A test's limit is five times its unplanted time, plus ten seconds.
func (h *harness) score(t *testing.T, p plant) {
	tree := t.TempDir()
	copyModule(t, h.base, tree)
	file := filepath.Join(tree, filepath.FromSlash(p.file))
	b, err := os.ReadFile(file)
	if err != nil {
		t.Fatal(err)
	}
	if n := strings.Count(string(b), p.old); n != 1 {
		t.Fatalf("%s: old text occurs %d times, want 1: %q", p.file, n, p.old)
	}
	if err := os.WriteFile(file, []byte(strings.Replace(string(b), p.old, p.new, 1)), 0o644); err != nil {
		t.Fatal(err)
	}
	planted := h.mod + "/" + path.Dir(p.file)
	var affected []*pkgInfo
	for _, pk := range h.pkgs {
		if pk.deps[planted] || pk.dir == "." {
			affected = append(affected, pk)
		}
	}
	bins, err := build(tree, t.TempDir(), affected)
	if err != nil {
		t.Fatalf("planted tree does not compile: %v", err)
	}
	var jobs []job
	for _, pk := range affected {
		for _, name := range pk.tests {
			jobs = append(jobs, job{pk, bins[pk.path], filepath.Join(tree, pk.dir), name,
				10*time.Second + 5*pk.base[name].elapsed})
		}
	}
	res := runAll(jobs)
	verdicts := map[string]byte{}
	var killers []string
	named := false
	for _, pk := range h.pkgs {
		for _, name := range pk.tests {
			id := testID(pk, name)
			r, ok := res[id]
			if !ok {
				r = pk.base[name]
			}
			verdicts[id] = r.v
			if kills(pk.base[name].v, r.v) {
				killers = append(killers, id)
				named = named || !digests[name]
			}
		}
	}
	h.run = append(h.run, p)
	h.matrix[p.name] = verdicts
	t.Logf("%s (%s): killed by %d tests: %s", p.name, p.mech, len(killers), strings.Join(killers, " "))
	if !named {
		t.Errorf("plant %s escapes: no test but a digest kills it (%v)", p.name, killers)
	}
}

func kills(base, planted byte) bool {
	return base == vPass && (planted == vFail || planted == vPanic || planted == vTimeout)
}

// report prints each plant's killers, the matrix, each test's unique kills
// and the tests that kill no plant.
func (h *harness) report() {
	if len(h.run) == 0 {
		return
	}
	var ids []string
	base := map[string]byte{}
	for _, pk := range h.pkgs {
		for _, name := range pk.tests {
			id := testID(pk, name)
			ids = append(ids, id)
			base[id] = pk.base[name].v
		}
	}
	killedBy := map[string][]string{} // plant → killers
	killsOf := map[string][]string{}  // test → plants
	for _, p := range h.run {
		for _, id := range ids {
			if kills(base[id], h.matrix[p.name][id]) {
				killedBy[p.name] = append(killedBy[p.name], id)
				killsOf[id] = append(killsOf[id], p.name)
			}
		}
	}
	var w strings.Builder
	fmt.Fprintf(&w, "\n== plants (%d) and their killers\n", len(h.run))
	for i, p := range h.run {
		fmt.Fprintf(&w, "%3d %-24s %s\n    %d: %s\n", i+1, p.name, p.mech,
			len(killedBy[p.name]), strings.Join(killedBy[p.name], " "))
	}
	width := 0
	for _, id := range ids {
		width = max(width, len(id))
	}
	fmt.Fprintf(&w, "\n== matrix (%c pass, %c fail, %c panic, %c timeout, %c skip; columns numbered as above; kills)\n",
		vPass, vFail, vPanic, vTimeout, vSkip)
	for div := 100; div >= 1; div /= 10 {
		if div == 1 || len(h.run) >= div {
			fmt.Fprintf(&w, "%*s ", width, "")
			for i := range h.run {
				fmt.Fprintf(&w, "%d", (i+1)/div%10)
			}
			fmt.Fprintln(&w)
		}
	}
	for _, id := range ids {
		fmt.Fprintf(&w, "%-*s ", width, id)
		for _, p := range h.run {
			w.WriteByte(h.matrix[p.name][id])
		}
		fmt.Fprintf(&w, " %d\n", len(killsOf[id]))
	}
	fmt.Fprintf(&w, "\n== unique kills (plants no other test kills)\n")
	var idle, escaped []string
	for _, id := range ids {
		var uniq []string
		for _, p := range killsOf[id] {
			if len(killedBy[p]) == 1 {
				uniq = append(uniq, p)
			}
		}
		if len(uniq) > 0 {
			fmt.Fprintf(&w, "%-*s %s\n", width, id, strings.Join(uniq, " "))
		}
		if len(killsOf[id]) == 0 {
			idle = append(idle, id)
		}
	}
	for _, p := range h.run {
		if !slices.ContainsFunc(killedBy[p.name], func(id string) bool { return !digests[id[strings.LastIndexByte(id, '.')+1:]] }) {
			escaped = append(escaped, p.name)
		}
	}
	fmt.Fprintf(&w, "\n== tests that kill no plant (%d of %d)\n%s\n", len(idle), len(ids), strings.Join(idle, "\n"))
	fmt.Fprintf(&w, "\n== plants no named test kills: %d %s\n", len(escaped), strings.Join(escaped, " "))
	fmt.Print(w.String())
}
