// Command bench is the repository's benchmark: seven workloads over the
// simulator, the sharded simulator and the emulator, end-to-end metrics in
// host time and simulated time, and a ladder that times every layer from
// outside. BENCHMARK.json at the repository root declares what it reports;
// README.md in this directory says how to read it.
//
//	bash bench/run.sh --workload churn512 --seed 1 --seconds 15 --trace 0
//	bash bench/run.sh --workload all --trace 1 --summary bench/out/run.json
package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"runtime"
	"strconv"
	"time"
)

// metricValue is one metric of the result line.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of standard output.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

func main() {
	var (
		name    = flag.String("workload", "all", "workload name, or all")
		seed    = flag.Int64("seed", 1, "the only source of randomness of the generated inputs")
		seconds = flag.Float64("seconds", 15, "how long one run measures")
		trace   = flag.Int("trace", 0, "1: the traced pass, reporting the per-layer metrics")
		outDir  = flag.String("out-dir", "bench/out", "where traced reps leave trace-<workload>.json")
		sumPath = flag.String("summary", "", "with --workload all: also write the JSON summary here")
		child   = flag.String("child", "", "internal: run one rep of this workload and report it")
		opt     repOptions
		spawned int64
	)
	flag.IntVar(&opt.rep, "rep", 0, "internal: rep number")
	flag.BoolVar(&opt.traced, "traced", false, "internal: record spans")
	flag.BoolVar(&opt.ladder, "ladder", false, "internal: replay the layer ladder")
	flag.BoolVar(&opt.serial, "serial", false, "internal: Shards = 1")
	flag.Int64Var(&spawned, "spawned-at", 0, "internal: parent's clock at spawn, Unix ns")
	flag.Parse()
	opt.seed, opt.scale, opt.outDir = *seed, 1, *outDir

	if *child != "" {
		opt.spawnedAt = time.Unix(0, spawned)
		if err := childMain(*child, opt); err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			os.Exit(2)
		}
		return
	}

	cfg := measureConfig{seed: *seed, seconds: *seconds, trace: *trace != 0, scale: 1, outDir: *outDir, minReps: 3, run: spawnRep}
	if *name == "all" {
		ok, err := runAll(cfg, *sumPath)
		if err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			os.Exit(2)
		}
		if !ok {
			os.Exit(1)
		}
		return
	}
	w, err := findWorkload(*name)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(2)
	}
	m, err := measure(w, cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(2)
	}
	decls, sums := endToEnd, m.endToEnd()
	if cfg.trace {
		decls, sums = perLayer, m.perLayer()
	}
	printMetrics(os.Stdout, w.name, decls, sums, m)
	res := m.result(decls, sums)
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(2)
	}
	fmt.Println(string(line))
	if !res.Correct {
		os.Exit(1)
	}
}

// childMain is one rep in a process of its own, so that peak RSS, CPU time
// and allocation counts belong to one run and no GC state leaks between
// reps. It reports on standard output as one line of JSON.
func childMain(name string, opt repOptions) error {
	w, err := findWorkload(name)
	if err != nil {
		return err
	}
	out, err := runRep(w, opt)
	if err != nil {
		return err
	}
	return json.NewEncoder(os.Stdout).Encode(out)
}

// spawnRep re-executes this program for one rep and waits for it to end.
func spawnRep(w *workload, opt repOptions) (*repOut, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(exe,
		"--child", w.name, "--seed", strconv.FormatInt(opt.seed, 10), "--rep", strconv.Itoa(opt.rep),
		"--traced="+strconv.FormatBool(opt.traced), "--ladder="+strconv.FormatBool(opt.ladder),
		"--serial="+strconv.FormatBool(opt.serial), "--out-dir", opt.outDir,
		"--spawned-at", strconv.FormatInt(time.Now().UnixNano(), 10))
	cmd.Stderr = os.Stderr
	stdout, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("rep %d of %s: %w", opt.rep, w.name, err)
	}
	out := new(repOut)
	if err := json.Unmarshal(bytes.TrimSpace(stdout), out); err != nil {
		return nil, fmt.Errorf("rep %d of %s: parse report: %w", opt.rep, w.name, err)
	}
	return out, nil
}

// measureConfig is one run of the benchmark on one workload.
type measureConfig struct {
	seed    int64
	seconds float64
	trace   bool
	scale   float64
	outDir  string
	minReps int // untraced reps at least; the traced pass makes do with one fewer
	run     func(*workload, repOptions) (*repOut, error)
}

// measured is what the reps of one run reported.
type measured struct {
	w        *workload
	reps     []*repOut // untraced: every end-to-end metric comes from these
	traced   []*repOut // span recording on; the last one ran the ladder
	serial   *repOut   // the sharded workload's Shards = 1 run
	failures []string
	failed   int // flows not completed, plus every flow of a rep that failed a check
}

// measure runs reps of w for cfg.seconds. Untraced, that is all it does.
// The traced pass alternates untraced and traced reps for part of the time,
// so that the tracing overhead compares like with like, then runs one more
// traced rep that also replays the ladder, and for the sharded workload the
// same inputs once with Shards = 1.
func measure(w *workload, cfg measureConfig) (*measured, error) {
	m := &measured{w: w}
	budget := time.Duration(cfg.seconds * float64(time.Second))
	if cfg.trace {
		budget /= 2
	}
	start := time.Now()
	for rep := 0; ; rep++ {
		opt := repOptions{seed: cfg.seed, scale: cfg.scale, rep: rep, outDir: cfg.outDir, traced: cfg.trace && rep%2 == 1}
		out, err := cfg.run(w, opt)
		if err != nil {
			return nil, err
		}
		if opt.traced {
			m.traced = append(m.traced, out)
		} else {
			m.reps = append(m.reps, out)
		}
		// Stop when the next rep, at the mean length so far, would overrun;
		// on a box so slow that the minimum of reps takes over twice the
		// budget, stop short of the minimum rather than run on.
		elapsed := time.Since(start)
		enough := len(m.reps) >= cfg.minReps
		if cfg.trace { // the ladder rep that follows is one more traced rep
			enough = len(m.reps) >= cfg.minReps-1 && len(m.traced) >= cfg.minReps-2
		}
		if (enough && elapsed+elapsed/time.Duration(rep+1) > budget) || (elapsed > 2*budget && len(m.reps) > 0) {
			break
		}
	}
	if cfg.trace {
		out, err := cfg.run(w, repOptions{seed: cfg.seed, scale: cfg.scale, rep: len(m.reps) + len(m.traced),
			outDir: cfg.outDir, traced: true, ladder: true})
		if err != nil {
			return nil, err
		}
		m.traced = append(m.traced, out)
		if m.reps[0].Layer["sim.shard_workers"] > 1 {
			if m.serial, err = cfg.run(w, repOptions{seed: cfg.seed, scale: cfg.scale, outDir: cfg.outDir, serial: true}); err != nil {
				return nil, err
			}
		}
	}
	m.check()
	return m, nil
}

func (m *measured) all() []*repOut {
	all := append(append([]*repOut(nil), m.reps...), m.traced...)
	if m.serial != nil {
		all = append(all, m.serial)
	}
	return all
}

// check applies the output checks that span reps: every rep of a sim
// workload, traced or not, sharded or serial, yields the same digest.
func (m *measured) check() {
	want := m.reps[0].Digest
	for _, r := range m.all() {
		bad := len(r.Failures) > 0
		m.failures = append(m.failures, r.Failures...)
		if r.Digest != want {
			bad = true
			m.failures = append(m.failures, fmt.Sprintf("digest %s differs from the first rep's %s", r.Digest, want))
		}
		if bad {
			m.failed += r.Offered
		} else {
			m.failed += r.Offered - r.Completed
		}
	}
}

func (m *measured) result(decls []metricDecl, sums map[string]summary) result {
	res := result{Correct: len(m.failures) == 0, Failed: m.failed, Metrics: make(map[string]metricValue)}
	for _, r := range m.all() {
		res.Attempted += r.Offered
	}
	for _, d := range decls {
		res.Metrics[d.name] = metricValue{Value: sums[d.name].Value, Unit: d.unit}
	}
	return res
}

func values(reps []*repOut, get func(*repOut) float64) []float64 {
	vs := make([]float64, len(reps))
	for i, r := range reps {
		vs[i] = get(r)
	}
	return vs
}

// endToEnd is every end-to-end metric over the untraced reps: the median,
// except that peak_rss_mb is the largest of the reps' peaks. Memory is
// provisioned for the worst rep, and the largest is also the steadier
// figure: whether a GC cycle lands before the high-water mark makes a rep's
// own peak bimodal (38 or 53 MB on bulk64).
func (m *measured) endToEnd() map[string]summary {
	rss := summarize(values(m.reps, func(r *repOut) float64 { return r.PeakRSSMB }))
	rss.Value = rss.Max
	return map[string]summary{
		"setup_s":     summarize(values(m.reps, func(r *repOut) float64 { return r.SetupS })),
		"wall_s":      summarize(values(m.reps, func(r *repOut) float64 { return r.WallS })),
		"peak_rss_mb": rss,
		"fct_p50_us":  summarize(values(m.reps, func(r *repOut) float64 { return r.FctP50Us })),
	}
}

// perLayer is every per-layer metric: counters and host times of the run as
// the median over the untraced reps, per-call costs from the ladder, and
// what only the pass as a whole can tell (speed-up over serial, tracing
// overhead, each layer's estimated share of wall_s).
func (m *measured) perLayer() map[string]summary {
	sums := make(map[string]summary)
	ladder := m.traced[len(m.traced)-1]
	for k, v := range ladder.Layer {
		sums[k] = single(v)
	}
	for k := range m.reps[0].Layer {
		sums[k] = summarize(values(m.reps, func(r *repOut) float64 { return r.Layer[k] }))
	}
	wall := median(values(m.reps, func(r *repOut) float64 { return r.WallS }))
	cpu := summarize(values(m.reps, func(r *repOut) float64 { return r.CPUS }))
	if m.w.sim != nil {
		sums["sim.cpu_s"] = cpu
		if m.serial != nil {
			sums["sim.shard_serial_wall_s"] = single(m.serial.WallS)
			sums["sim.shard_speedup"] = single(m.serial.WallS / wall)
		}
		// Estimated shares of wall_s: the run's counts times the ladder's
		// cost per call. They overlap — forwarding and flooding run on the
		// engine — so they do not sum to one.
		share := func(count string, nsPerCall float64) summary {
			return single(sums[count].Value * nsPerCall / (wall * 1e9))
		}
		sums["sim.share_engine_est"] = share("sim.events", sums["sim.engine_ns_per_event"].Value)
		sums["sim.share_net_est"] = share("sim.pkt_hops", sums["sim.net_ns_per_hop"].Value)
		sums["sim.share_bcast_est"] = share("sim.bcast_deliveries", sums["sim.bcast_ns_per_delivery"].Value+sums["core.view_apply_ns"].Value)
		sums["sim.share_path_est"] = share("sim.data_pkts", sums["routing.sample_path_ns"].Value)
		sums["sim.share_compute_est"] = share("sim.recomputations", sums["core.compute_us"].Value*1e3)
	} else {
		sums["emu.cpu_s"] = cpu
		var pooled []float64
		for _, r := range m.reps {
			pooled = append(pooled, r.LatUs...)
		}
		sums["emu.flow_p95_us"] = single(percentile(pooled, 95))
		sums["emu.flow_p99_us"] = single(percentile(pooled, 99))
	}
	tracedWall := median(values(m.traced, func(r *repOut) float64 { return r.WallS }))
	sums["bench.trace_overhead_frac"] = single((tracedWall - wall) / wall)
	return sums
}

// printMetrics prints every metric by name with its unit: the median over
// reps with min, max and the rep count, then any failed check.
func printMetrics(out io.Writer, workload string, decls []metricDecl, sums map[string]summary, m *measured) {
	w := bufio.NewWriter(out)
	defer w.Flush()
	fmt.Fprintf(w, "workload %s: %d untraced reps, %d traced\n", workload, len(m.reps), len(m.traced))
	for _, d := range decls {
		s := sums[d.name]
		fmt.Fprintf(w, "  %-32s %14.6g %-6s", d.name, s.Value, d.unit)
		if s.N > 1 && s.Min != s.Max {
			fmt.Fprintf(w, " (min %.6g, max %.6g, n=%d)", s.Min, s.Max, s.N)
		}
		fmt.Fprintln(w)
	}
	for _, f := range m.failures {
		fmt.Fprintf(w, "  CHECK FAILED: %s\n", f)
	}
}

// workloadSummary is one workload's part of the --workload all summary.
type workloadSummary struct {
	Name      string             `json:"name"`
	Reps      int                `json:"reps"`
	Correct   bool               `json:"correct"`
	Ops       int                `json:"ops"`
	OpsFailed int                `json:"ops_failed"`
	FailFrac  float64            `json:"fail_frac"`
	EndToEnd  map[string]summary `json:"end_to_end"`
	PerLayer  map[string]summary `json:"per_layer,omitempty"`
}

// runAll runs every workload — untraced, then with cfg.trace the traced pass
// too — prints every metric, and reports whether every check passed. The
// summary is what bench/baseline holds.
func runAll(cfg measureConfig, sumPath string) (bool, error) {
	type hostInfo struct {
		NumCPU    int    `json:"nproc"`
		GoVersion string `json:"go"`
		OS        string `json:"os"`
		Arch      string `json:"arch"`
	}
	all := struct {
		Seed       int64             `json:"seed"`
		RunSeconds float64           `json:"run_seconds"`
		Host       hostInfo          `json:"host"`
		Workloads  []workloadSummary `json:"workloads"`
		Claim      *string           `json:"claim"` // the benchmark claims no gain
	}{Seed: cfg.seed, RunSeconds: cfg.seconds,
		Host: hostInfo{runtime.NumCPU(), runtime.Version(), runtime.GOOS, runtime.GOARCH}}
	ok := true
	for i := range workloads {
		w := &workloads[i]
		untraced := cfg
		untraced.trace = false
		m, err := measure(w, untraced)
		if err != nil {
			return false, err
		}
		ws := workloadSummary{Name: w.name, Reps: len(m.reps), EndToEnd: m.endToEnd()}
		printMetrics(os.Stdout, w.name, endToEnd, ws.EndToEnd, m)
		res := m.result(endToEnd, ws.EndToEnd)
		if cfg.trace {
			mt, err := measure(w, cfg)
			if err != nil {
				return false, err
			}
			ws.PerLayer = mt.perLayer()
			printMetrics(os.Stdout, w.name, perLayer, ws.PerLayer, mt)
			rt := mt.result(perLayer, ws.PerLayer)
			res.Correct = res.Correct && rt.Correct
			res.Attempted += rt.Attempted
			res.Failed += rt.Failed
		}
		ws.Correct, ws.Ops, ws.OpsFailed = res.Correct, res.Attempted, res.Failed
		ws.FailFrac = float64(res.Failed) / float64(res.Attempted)
		fmt.Printf("  %-32s %14.6g ratio  (ops %d, ops_failed %d)\n", "fail_frac", ws.FailFrac, ws.Ops, ws.OpsFailed)
		ok = ok && res.Correct
		all.Workloads = append(all.Workloads, ws)
	}
	data, err := json.MarshalIndent(all, "", " ")
	if err != nil {
		return false, err
	}
	if sumPath != "" {
		if err := os.WriteFile(sumPath, append(data, '\n'), 0o644); err != nil {
			return false, err
		}
	}
	line, err := json.Marshal(all)
	if err != nil {
		return false, err
	}
	fmt.Println(string(line))
	return ok, nil
}
