package experiments

import (
	"math"
	"strings"
	"testing"

	"r2c2/internal/genetic"
	"r2c2/internal/routing"
	"r2c2/internal/sim"
	"r2c2/internal/simtime"
	"r2c2/internal/topology"
)

// Figure 2 at paper scale (8-ary 2-cube) must land on the published
// anchors. This is the full headline table of the routing study.
func TestFig2MatchesPaper(t *testing.T) {
	g, err := topology.NewTorus(8, 2)
	if err != nil {
		t.Fatal(err)
	}
	res := Fig2(g, 30, 1)
	anchors := []struct {
		pattern string
		proto   routing.Protocol
		want    float64
		tol     float64
	}{
		{"nearest-neighbor", routing.RPS, 4.0, 0.05},
		{"nearest-neighbor", routing.DOR, 4.0, 0.05},
		{"nearest-neighbor", routing.VLB, 0.5, 0.02},
		{"uniform", routing.RPS, 1.0, 0.03},
		{"uniform", routing.DOR, 1.0, 0.03},
		{"uniform", routing.VLB, 0.5, 0.02},
		{"uniform", routing.WLB, 0.76, 0.03},
		{"tornado", routing.RPS, 0.33, 0.01},
		{"tornado", routing.DOR, 0.33, 0.01},
		{"tornado", routing.VLB, 0.5, 0.01},
		{"tornado", routing.WLB, 0.53, 0.01},
		{"bit-complement", routing.VLB, 0.5, 0.02},
	}
	for _, a := range anchors {
		got := res.Get(a.pattern, a.proto)
		if math.Abs(got-a.want) > a.tol {
			t.Errorf("%s/%v = %.3f, want %.3f±%.3f", a.pattern, a.proto, got, a.want, a.tol)
		}
	}
	// Structural claims: no single protocol wins everywhere; VLB's
	// worst-case is the best worst-case.
	worst := res.Throughput[len(res.Throughput)-1]
	bestWorst, bestIdx := 0.0, -1
	for j, v := range worst {
		if v > bestWorst {
			bestWorst, bestIdx = v, j
		}
	}
	if res.Protocols[bestIdx] != routing.VLB {
		t.Errorf("best worst-case protocol = %v, want VLB", res.Protocols[bestIdx])
	}
	if res.Get("transpose", routing.RPS) < 0 {
		t.Error("transpose row missing on 2D cube")
	}
	if !strings.Contains(res.Table().String(), "tornado") {
		t.Error("table rendering lost rows")
	}
	if res.Get("nope", routing.RPS) != -1 {
		t.Error("unknown pattern should return -1")
	}
}

func TestFig9Table(t *testing.T) {
	res := Fig9([]float64{0, 0.05, 0.5, 1})
	if len(res.Fraction) != 3 || len(res.Fraction[0]) != 4 {
		t.Fatal("wrong shape")
	}
	// Anchor: ~1.3% at 5% small bytes on the 3D torus.
	if math.Abs(res.Fraction[0][1]-0.013) > 0.004 {
		t.Errorf("3D torus at 0.05 = %v, want ~0.013", res.Fraction[0][1])
	}
	if !strings.Contains(res.Table().String(), "3D-torus-512") {
		t.Error("table missing topology column")
	}
}

func TestFig19Shape(t *testing.T) {
	g, err := topology.NewTorus(8, 3)
	if err != nil {
		t.Fatal(err)
	}
	res := Fig19(g, []int{1, 2, 5, 10})
	// Paper: 6.2x at 1 flow/server, 19.9x at 10.
	r1 := res.Centralized[0] / res.Decentralized[0]
	r10 := res.Centralized[3] / res.Decentralized[3]
	if r1 < 3 || r1 > 15 {
		t.Errorf("ratio at 1 flow/server = %.1f, want ~6", r1)
	}
	if r10 < 2.5*r1 {
		t.Errorf("ratio must grow with flows/server: %.1f -> %.1f", r1, r10)
	}
	if res.Decentralized[0] != res.Decentralized[3] {
		t.Error("decentralized cost should be constant")
	}
	_ = res.Table().String()
}

func TestFig15And16Trends(t *testing.T) {
	s := TestScale()
	s.Flows = 600
	rhos := []simtime.Time{100 * simtime.Microsecond, 2 * simtime.Millisecond}
	r15 := Fig15(s, s.Tau, rhos)
	if r15.Median[0] > r15.Median[1] {
		t.Errorf("Fig15: error should grow with rho: %v", r15.Median)
	}
	_ = r15.Table().String()

	taus := []simtime.Time{2 * simtime.Microsecond, 50 * simtime.Microsecond}
	r16 := Fig16(s, 500*simtime.Microsecond, taus)
	// Higher load (smaller tau) gives larger error.
	if r16.Median[0] < r16.Median[1] {
		t.Errorf("Fig16: error should shrink with tau: %v", r16.Median)
	}
	_ = r16.Table().String()
}

func TestFig8Feasibility(t *testing.T) {
	s := TestScale()
	s.Flows = 400
	rhos := []simtime.Time{100 * simtime.Microsecond, simtime.Millisecond}
	res := Fig8(s, s.Tau, rhos, 50)
	if len(res.MedianHost) != 2 {
		t.Fatal("wrong shape")
	}
	for i := range rhos {
		if res.MedianHost[i] < 0 || res.P99Host[i] < res.MedianHost[i] {
			t.Errorf("rho %v: implausible overhead median=%v p99=%v",
				rhos[i], res.MedianHost[i], res.P99Host[i])
		}
		if row := res.Table().Rows[i]; row[4] != pct(res.MedianHost[i]*AtomSlowdown) || row[5] != pct(res.P99Host[i]*AtomSlowdown) {
			t.Errorf("atom scaling wrong: %v", row)
		}
	}
	// At ρ=1ms the host must find recomputation cheap (well under 100%).
	if res.MedianHost[1] > 1 {
		t.Errorf("1ms recomputation infeasible on host: %v", res.MedianHost[1])
	}
	_ = res.Table().String()
}

func TestFig10to14SmallScale(t *testing.T) {
	if testing.Short() {
		t.Skip("packet-level sweep")
	}
	s := TestScale()
	s.Flows = 500
	r := Fig10and11(s, s.Tau)
	if len(r.Runs) != 3 {
		t.Fatal("expected 3 transports")
	}
	for _, run := range r.Runs {
		if run.Results.Completed == 0 {
			t.Fatalf("%v completed no flows", run.Transport)
		}
	}
	// Figure 10 headline: R2C2's tail FCT well below TCP's.
	r2 := r.Runs[0].Results.ShortFCT.Percentile(99)
	tcp := r.Runs[1].Results.ShortFCT.Percentile(99)
	if r2 >= tcp {
		t.Errorf("R2C2 p99 short FCT %.3g not below TCP %.3g", r2, tcp)
	}
	_ = r.ShortFCTTable().String()
	_ = r.LongThroughputTable().String()

	sweep := Fig12to14(s, []simtime.Time{100 * simtime.Nanosecond, 4 * simtime.Microsecond, 40 * simtime.Microsecond})
	if len(sweep.FCT99) != 3 || len(sweep.QueueP99) != 3 {
		t.Fatal("sweep shape wrong")
	}
	// Figure 14 headline: queues stay near-empty at moderate load — the
	// hottest port's maximum is a handful of MTUs — and only build at the
	// extreme load point. (The p99 of per-port *run maxima* is not monotone
	// in load between moderate points: lower load means a longer run, which
	// gives every port more chances to record a transient burst, so the
	// assertion contrasts extreme vs moderate instead of moderate vs light.)
	for _, i := range []int{1, 2} {
		if sweep.QueueP99[i] > 64e3 {
			t.Errorf("tau=%v: moderate-load queues not near-empty: %v bytes", sweep.Taus[i], sweep.QueueP99[i])
		}
		if sweep.QueueP99[0] < 2*sweep.QueueP99[i] {
			t.Errorf("extreme load should at least double the p99 max queue: %v", sweep.QueueP99)
		}
	}
	_ = sweep.Fig12Table().String()
	_ = sweep.Fig13Table().String()
	_ = sweep.Fig14Table().String()
}

func TestFig17HeadroomSweep(t *testing.T) {
	if testing.Short() {
		t.Skip("packet-level sweep")
	}
	s := TestScale()
	s.Flows = 400
	res := Fig17(s, s.Tau, []float64{0, 0.05, 0.2})
	if len(res.FCT99) != 3 {
		t.Fatal("wrong shape")
	}
	for i, v := range res.FCT99 {
		if v <= 0 {
			t.Errorf("headroom %v: no FCT measured", res.Headrooms[i])
		}
	}
	// Figure 17b: large headroom costs long-flow throughput relative to a
	// modest one.
	if res.LongAvg[2] > res.LongAvg[1]*1.05 {
		t.Errorf("20%% headroom should not beat 5%%: %v vs %v", res.LongAvg[2], res.LongAvg[1])
	}
	// Headroom is bandwidth the allocator keeps back, so 20 % of it costs
	// long flows throughput against none. Over seeds 1–10 of this workload
	// the 20 %/0 % ratio of mean long-flow throughput is 0.82–0.93 (seed 1:
	// 0.906); a fill that ignores headroom reads exactly 1.
	if r := res.LongAvg[2] / res.LongAvg[0]; r > 0.96 {
		t.Errorf("20%% headroom keeps %.3f of the long-flow throughput at 0%%, want at most 0.96", r)
	}
	_ = res.Table().String()
}

func TestFig18AdaptiveWins(t *testing.T) {
	if testing.Short() {
		t.Skip("packet-level sweep")
	}
	s := TestScale()
	res := Fig18(s, []float64{0, 0.25, 1.0},
		genetic.Config{Population: 40, MaxGens: 25})
	// Zero load: all zeros.
	if res.Adaptive[0] != 0 {
		t.Error("zero-load throughput nonzero")
	}
	for i := 1; i < len(res.Loads); i++ {
		if res.Adaptive[i] < res.AllRPS[i]-1 || res.Adaptive[i] < res.AllVLB[i]-1 ||
			res.Adaptive[i] < res.Random[i]-1 {
			t.Errorf("load %v: adaptive %v below a baseline (RPS %v, VLB %v, rnd %v)",
				res.Loads[i], res.Adaptive[i], res.AllRPS[i], res.AllVLB[i], res.Random[i])
		}
	}
	_ = res.Table().String()
}

func TestScalePresets(t *testing.T) {
	p, ts := PaperScale(), TestScale()
	if p.Torus().Nodes() != 512 {
		t.Error("paper scale not 512 nodes")
	}
	if ts.Torus().Nodes() != 64 {
		t.Error("test scale not 64 nodes")
	}
}

func TestTableRendering(t *testing.T) {
	tab := &Table{Title: "x", Header: []string{"a", "bbbb"}}
	tab.AddRow("1", "2")
	s := tab.String()
	if !strings.Contains(s, "== x ==") || !strings.Contains(s, "bbbb") {
		t.Fatalf("bad rendering: %q", s)
	}
}

var _ = sim.TransportR2C2 // document the dependency used by the sweeps

func TestTableCSV(t *testing.T) {
	tab := &Table{Title: "t", Header: []string{"a", "b"}}
	tab.AddRow("1", "2")
	tab.AddRow("3", "4")
	want := "a,b\n1,2\n3,4\n"
	if got := tab.CSV(); got != want {
		t.Fatalf("CSV = %q, want %q", got, want)
	}
}

// Get returns the throughput for a named pattern and protocol.
func (r *Fig2Result) Get(pattern string, proto routing.Protocol) float64 {
	for i, p := range r.Patterns {
		if p != pattern {
			continue
		}
		for j, pr := range r.Protocols {
			if pr == proto {
				return r.Throughput[i][j]
			}
		}
	}
	return -1
}
