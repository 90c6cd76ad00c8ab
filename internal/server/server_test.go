package server

import (
	"math/rand"

	"math"
	"repro/internal/cache"
	"testing"

	"repro/internal/policy"
	"repro/internal/qnet"
	"repro/internal/trace"
)

// testTrace returns a small workload with enough reuse to exercise caching:
// 800 files of ~20 KB with a 500 MB-scale shape compressed to test size.
func testTrace(requests int) *trace.Trace {
	return trace.MustGenerate(trace.GenSpec{
		Name: "test", Files: 800, AvgFileKB: 30, Requests: requests,
		AvgReqKB: 15, Alpha: 1.0, LocalityP: 0.3, Seed: 42,
	})
}

func TestRunConservation(t *testing.T) {
	tr := testTrace(20000)
	for _, sys := range []System{Traditional, LARDServer, L2SServer} {
		cfg := DefaultConfig(sys, 4)
		cfg.WarmFraction = 0 // measure everything
		r, err := Run(cfg, tr)
		if err != nil {
			t.Fatal(err)
		}
		if r.Completed+r.Aborted != uint64(tr.NumRequests()) {
			t.Errorf("%v: completed %d + aborted %d != %d requests",
				sys, r.Completed, r.Aborted, tr.NumRequests())
		}
		if r.Aborted != 0 {
			t.Errorf("%v: %d aborted without failures", sys, r.Aborted)
		}
		if r.Throughput <= 0 {
			t.Errorf("%v: throughput %v", sys, r.Throughput)
		}
	}
}

func TestRunDeterministic(t *testing.T) {
	tr := testTrace(10000)
	cfg := DefaultConfig(L2SServer, 8)
	a, err := Run(cfg, tr)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(cfg, tr)
	if err != nil {
		t.Fatal(err)
	}
	if a.Throughput != b.Throughput || a.MissRate != b.MissRate ||
		a.Events != b.Events || a.ControlMessages != b.ControlMessages {
		t.Fatalf("runs differ: %+v vs %+v", a, b)
	}
}

func TestSingleNodeSystemsCoincide(t *testing.T) {
	tr := testTrace(15000)
	var thr []float64
	for _, sys := range []System{Traditional, LARDServer, L2SServer} {
		r, err := Run(DefaultConfig(sys, 1), tr)
		if err != nil {
			t.Fatal(err)
		}
		thr = append(thr, r.Throughput)
		if r.ForwardedFrac != 0 {
			t.Errorf("%v on one node forwarded %.1f%%", sys, r.ForwardedFrac*100)
		}
	}
	for i := 1; i < len(thr); i++ {
		if math.Abs(thr[i]-thr[0])/thr[0] > 0.02 {
			t.Fatalf("single-node throughputs diverge: %v", thr)
		}
	}
}

func TestForwardingFractions(t *testing.T) {
	tr := testTrace(20000)
	trad, err := Run(DefaultConfig(Traditional, 8), tr)
	if err != nil {
		t.Fatal(err)
	}
	if trad.ForwardedFrac != 0 {
		t.Errorf("traditional forwarded %.1f%%, want 0", trad.ForwardedFrac*100)
	}
	lard, err := Run(DefaultConfig(LARDServer, 8), tr)
	if err != nil {
		t.Fatal(err)
	}
	if lard.ForwardedFrac != 1 {
		t.Errorf("LARD forwarded %.1f%%, want 100%%", lard.ForwardedFrac*100)
	}
	l2s, err := Run(DefaultConfig(L2SServer, 8), tr)
	if err != nil {
		t.Fatal(err)
	}
	if l2s.ForwardedFrac <= 0 || l2s.ForwardedFrac >= 1 {
		t.Errorf("L2S forwarded %.1f%%, want strictly between 0 and 100%%",
			l2s.ForwardedFrac*100)
	}
	if l2s.ForwardedFrac >= lard.ForwardedFrac {
		t.Error("L2S must forward fewer requests than LARD")
	}
}

func TestLocalityConsciousMissRatesLower(t *testing.T) {
	tr := testTrace(30000)
	trad, _ := Run(DefaultConfig(Traditional, 8), tr)
	l2s, _ := Run(DefaultConfig(L2SServer, 8), tr)
	lard, _ := Run(DefaultConfig(LARDServer, 8), tr)
	if l2s.MissRate >= trad.MissRate {
		t.Errorf("L2S miss %.1f%% not below traditional %.1f%%",
			l2s.MissRate*100, trad.MissRate*100)
	}
	if lard.MissRate >= trad.MissRate {
		t.Errorf("LARD miss %.1f%% not below traditional %.1f%%",
			lard.MissRate*100, trad.MissRate*100)
	}
}

func TestL2SOutperformsAtScale(t *testing.T) {
	tr := testTrace(40000)
	trad, _ := Run(DefaultConfig(Traditional, 16), tr)
	lard, _ := Run(DefaultConfig(LARDServer, 16), tr)
	l2s, _ := Run(DefaultConfig(L2SServer, 16), tr)
	if l2s.Throughput <= lard.Throughput {
		t.Errorf("L2S %v not above LARD %v at 16 nodes", l2s.Throughput, lard.Throughput)
	}
	if l2s.Throughput <= trad.Throughput {
		t.Errorf("L2S %v not above traditional %v at 16 nodes", l2s.Throughput, trad.Throughput)
	}
}

func TestLARDFrontEndCeiling(t *testing.T) {
	// With plentiful nodes and tiny files, LARD saturates near
	// 1/FECostSec = 5000 requests/s.
	tr := trace.MustGenerate(trace.GenSpec{
		Name: "tiny", Files: 400, AvgFileKB: 4, Requests: 40000,
		AvgReqKB: 3, Alpha: 1.0, LocalityP: 0.3, Seed: 7,
	})
	r, err := Run(DefaultConfig(LARDServer, 16), tr)
	if err != nil {
		t.Fatal(err)
	}
	if r.Throughput < 3500 || r.Throughput > 5300 {
		t.Fatalf("LARD throughput %v, want near the 5000/s front-end ceiling", r.Throughput)
	}
	// And the front-end (node 0) is the busiest CPU.
	fe := r.PerNodeCPUUtil[0]
	for i, u := range r.PerNodeCPUUtil[1:] {
		if u > fe {
			t.Fatalf("back-end %d CPU %.2f busier than front-end %.2f", i+1, u, fe)
		}
	}
}

func TestThroughputScalesWithNodes(t *testing.T) {
	tr := testTrace(30000)
	prev := 0.0
	for _, n := range []int{1, 4, 16} {
		r, err := Run(DefaultConfig(L2SServer, n), tr)
		if err != nil {
			t.Fatal(err)
		}
		if r.Throughput <= prev {
			t.Fatalf("L2S throughput at %d nodes (%v) not above %v", n, r.Throughput, prev)
		}
		prev = r.Throughput
	}
}

func TestL2SNodeFailureDegradesGracefully(t *testing.T) {
	tr := testTrace(30000)
	base, _ := Run(DefaultConfig(L2SServer, 8), tr)
	cfg := DefaultConfig(L2SServer, 8)
	cfg.FailNode = 3
	cfg.FailAtFrac = 0.5
	r, err := Run(cfg, tr)
	if err != nil {
		t.Fatal(err)
	}
	// Requests in flight at the failed node are lost, but the server keeps
	// operating: the completion count stays close to the total.
	lost := float64(r.Aborted) / float64(tr.NumRequests())
	if lost > 0.05 {
		t.Errorf("L2S lost %.1f%% of requests to one node failure", lost*100)
	}
	if r.Throughput < base.Throughput*0.5 {
		t.Errorf("L2S throughput collapsed after one node failure: %v vs %v",
			r.Throughput, base.Throughput)
	}
}

func TestLARDFrontEndFailureIsFatal(t *testing.T) {
	tr := testTrace(30000)
	cfg := DefaultConfig(LARDServer, 8)
	cfg.FailNode = 0 // the front-end
	cfg.FailAtFrac = 0.5
	r, err := Run(cfg, tr)
	if err != nil {
		t.Fatal(err)
	}
	// Every request after the failure dies: the single point of failure.
	if float64(r.Aborted) < 0.4*float64(tr.NumRequests()) {
		t.Errorf("only %d of %d requests lost after front-end failure",
			r.Aborted, tr.NumRequests())
	}
}

func TestWarmFractionReducesMissRate(t *testing.T) {
	tr := testTrace(30000)
	cold := DefaultConfig(Traditional, 4)
	cold.WarmFraction = 0
	warm := DefaultConfig(Traditional, 4)
	warm.WarmFraction = 0.5
	rc, _ := Run(cold, tr)
	rw, _ := Run(warm, tr)
	if rw.MissRate >= rc.MissRate {
		t.Errorf("warmed miss %.1f%% not below cold %.1f%%",
			rw.MissRate*100, rc.MissRate*100)
	}
}

func TestMaxRequestsTruncates(t *testing.T) {
	tr := testTrace(30000)
	cfg := DefaultConfig(Traditional, 2)
	cfg.MaxRequests = 5000
	cfg.WarmFraction = 0
	r, err := Run(cfg, tr)
	if err != nil {
		t.Fatal(err)
	}
	if r.Completed != 5000 {
		t.Fatalf("Completed = %d, want 5000", r.Completed)
	}
}

func TestCustomPolicy(t *testing.T) {
	tr := testTrace(5000)
	cfg := DefaultConfig(CustomServer, 4)
	cfg.CustomPolicy = func(env policy.Env) policy.Distributor {
		return policy.NewFewestConnections(env)
	}
	r, err := Run(cfg, tr)
	if err != nil {
		t.Fatal(err)
	}
	if r.System != "traditional" {
		t.Fatalf("System = %q", r.System)
	}
}

func TestL2SStatsExposed(t *testing.T) {
	tr := testTrace(20000)
	r, err := Run(DefaultConfig(L2SServer, 8), tr)
	if err != nil {
		t.Fatal(err)
	}
	if r.L2S == nil {
		t.Fatal("L2S stats missing")
	}
	if r.L2S.LoadBroadcasts == 0 {
		t.Error("expected load broadcasts under saturation")
	}
	if len(r.L2S.SetSizes) == 0 {
		t.Error("expected server sets to exist")
	}
}

func TestMeanLoadWithinWindow(t *testing.T) {
	tr := testTrace(20000)
	cfg := DefaultConfig(L2SServer, 4)
	r, _ := Run(cfg, tr)
	if r.MeanLoad <= 0 || r.MeanLoad > float64(cfg.WindowPerNode)+1 {
		t.Fatalf("MeanLoad = %v, window per node = %d", r.MeanLoad, cfg.WindowPerNode)
	}
}

func TestUtilizationsBounded(t *testing.T) {
	tr := testTrace(20000)
	for _, sys := range []System{Traditional, LARDServer, L2SServer} {
		r, _ := Run(DefaultConfig(sys, 8), tr)
		if r.MeanCPUUtil < 0 || r.MeanCPUUtil > 1+1e-9 {
			t.Errorf("%v: CPU util %v", sys, r.MeanCPUUtil)
		}
		if r.RouterUtil < 0 || r.RouterUtil > 1+1e-9 {
			t.Errorf("%v: router util %v", sys, r.RouterUtil)
		}
		if math.Abs(r.CPUIdle-(1-r.MeanCPUUtil)) > 1e-12 {
			t.Errorf("%v: idle inconsistent with util", sys)
		}
	}
}

func TestConfigValidation(t *testing.T) {
	tr := testTrace(100)
	bad := []Config{
		{System: Traditional, Nodes: 0, WindowPerNode: 1},
		{System: Traditional, Nodes: 2, WindowPerNode: 0},
		{System: Traditional, Nodes: 2, WindowPerNode: 1, WarmFraction: 0.99},
		{System: LARDServer, Nodes: 2, WindowPerNode: 1, FECostSec: 0},
		{System: CustomServer, Nodes: 2, WindowPerNode: 1},
		{System: Traditional, Nodes: 2, WindowPerNode: 1, FailNode: 5},
	}
	for i, cfg := range bad {
		if _, err := Run(cfg, tr); err == nil {
			t.Errorf("case %d: expected config error", i)
		}
	}
}

func TestSystemString(t *testing.T) {
	if Traditional.String() != "traditional" || LARDServer.String() != "lard" ||
		L2SServer.String() != "l2s" || CustomServer.String() != "custom" {
		t.Fatal("system names wrong")
	}
	if System(42).String() == "" {
		t.Fatal("unknown system must still render")
	}
}

// Cross-validation against the analytic model: in a regime the model
// captures exactly (uniform file size, everything cached, no forwarding),
// the simulator must approach the model's CPU-bound throughput.
func TestSimulatorMatchesModelCPUBound(t *testing.T) {
	// 50 files of exactly 16 KB: fits easily in a 32 MB cache, so the
	// measured interval is all hits.
	sizes := make([]int64, 50)
	for i := range sizes {
		sizes[i] = 16 << 10
	}
	reqs := make([]cache.FileID, 60000)
	rng := rand.New(rand.NewSource(1))
	for i := range reqs {
		reqs[i] = cache.FileID(rng.Intn(len(sizes)))
	}
	tr := &trace.Trace{Name: "uniform", Sizes: sizes, Requests: reqs}

	cfg := DefaultConfig(Traditional, 4)
	cfg.WindowPerNode = 24 // enough concurrency to saturate
	r, err := Run(cfg, tr)
	if err != nil {
		t.Fatal(err)
	}
	if r.MissRate > 0.001 {
		t.Fatalf("expected all hits, miss rate %v", r.MissRate)
	}

	p := cfg.Costs
	p.Nodes = 4
	p.AvgFileKB = 16
	bound := p.Bound(1, 0).RequestsPerSec
	if r.Throughput > bound*1.01 {
		t.Fatalf("simulator %v exceeds the model bound %v", r.Throughput, bound)
	}
	if r.Throughput < bound*0.90 {
		t.Fatalf("simulator %v far below the model bound %v (should saturate)", r.Throughput, bound)
	}
}

func TestDistributedFSCostsThroughput(t *testing.T) {
	// A miss-heavy workload: the DFS's remote disk reads must cost
	// something but not change correctness.
	tr := trace.MustGenerate(trace.GenSpec{
		Name: "missy", Files: 5000, AvgFileKB: 30, Requests: 30000,
		AvgReqKB: 25, Alpha: 0.6, Seed: 4,
	})
	local, err := Run(DefaultConfig(Traditional, 8), tr)
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig(Traditional, 8)
	cfg.DistributedFS = true
	dfs, err := Run(cfg, tr)
	if err != nil {
		t.Fatal(err)
	}
	if dfs.Completed+dfs.Aborted == 0 {
		t.Fatal("no requests completed under DFS")
	}
	if dfs.Throughput > local.Throughput*1.02 {
		t.Fatalf("remote disk reads should not be faster: %v vs %v",
			dfs.Throughput, local.Throughput)
	}
	if dfs.Throughput < local.Throughput*0.5 {
		t.Fatalf("DFS collapsed throughput: %v vs %v", dfs.Throughput, local.Throughput)
	}
	// The DFS moves data over the cluster network, so messages appear even
	// for the traditional server.
	if dfs.ControlMessages == 0 {
		t.Fatal("DFS fetches should use the cluster network")
	}
	if local.ControlMessages != 0 {
		t.Fatal("traditional server without DFS must not message")
	}
}

func TestFileHomeSpreads(t *testing.T) {
	counts := make([]int, 8)
	for f := 0; f < 8000; f++ {
		h := fileHome(cache.FileID(f), 8)
		if h < 0 || h >= 8 {
			t.Fatalf("home %d out of range", h)
		}
		counts[h]++
	}
	for n, c := range counts {
		if c < 800 || c > 1200 {
			t.Errorf("node %d homes %d files, expected near 1000", n, c)
		}
	}
}

func TestHeterogeneousCPUSpeeds(t *testing.T) {
	tr := testTrace(30000)
	base, err := Run(DefaultConfig(L2SServer, 4), tr)
	if err != nil {
		t.Fatal(err)
	}
	// Two fast nodes, two half-speed nodes.
	cfg := DefaultConfig(L2SServer, 4)
	cfg.Profiles = []NodeProfile{{CPUSpeed: 1}, {CPUSpeed: 1}, {CPUSpeed: 0.5}, {CPUSpeed: 0.5}}
	het, err := Run(cfg, tr)
	if err != nil {
		t.Fatal(err)
	}
	// Slower hardware means lower throughput, but connection-count load
	// balancing adapts: the cluster must retain well over half the
	// homogeneous throughput (naive equal spread would be capped by the
	// slow nodes).
	if het.Throughput >= base.Throughput {
		t.Fatalf("heterogeneous %v not below homogeneous %v", het.Throughput, base.Throughput)
	}
	if het.Throughput < base.Throughput*0.55 {
		t.Fatalf("throughput collapsed on mixed hardware: %v vs %v",
			het.Throughput, base.Throughput)
	}
	// The fast nodes end up busier in absolute work terms: their CPU time
	// per unit utilization covers twice the requests, so utilization
	// should be comparable or higher on slow nodes, not pathologically
	// imbalanced.
	if het.LoadImbalance > 3 {
		t.Fatalf("load imbalance %v too high", het.LoadImbalance)
	}
}

func TestCPUSpeedsValidation(t *testing.T) {
	tr := testTrace(100)
	cfg := DefaultConfig(Traditional, 2)
	cfg.Profiles = []NodeProfile{{CPUSpeed: 1}}
	if _, err := Run(cfg, tr); err == nil {
		t.Fatal("length mismatch accepted")
	}
	cfg.Profiles = []NodeProfile{{CPUSpeed: 1}, {CPUSpeed: -1}}
	if _, err := Run(cfg, tr); err == nil {
		t.Fatal("negative speed accepted")
	}
}

func TestTimelineShowsFailureDip(t *testing.T) {
	tr := testTrace(30000)
	cfg := DefaultConfig(L2SServer, 8)
	cfg.TimelineBucket = 0.5
	cfg.FailNode = 3
	cfg.FailAtFrac = 0.7
	r, err := Run(cfg, tr)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Timeline) < 4 {
		t.Fatalf("timeline too short: %d buckets", len(r.Timeline))
	}
	// Steady state before the failure, reduced capacity after: the last
	// full bucket must be below the early steady-state level.
	early := r.Timeline[1]
	late := r.Timeline[len(r.Timeline)-2]
	if early <= 0 || late <= 0 {
		t.Fatalf("timeline has empty buckets: %v", r.Timeline)
	}
	if late >= early {
		t.Errorf("no throughput dip after node failure: early %v, late %v", early, late)
	}
}

func TestTimelineDisabledByDefault(t *testing.T) {
	tr := testTrace(5000)
	r, err := Run(DefaultConfig(Traditional, 2), tr)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Timeline) != 0 {
		t.Fatal("timeline recorded without being configured")
	}
}

// Section 6: the dispatcher-based LARD variant accepts connections on all
// serving nodes, so it escapes the original front-end's ~5000 req/s accept
// ceiling — but its dispatcher remains a (higher) bottleneck and a single
// point of failure, and L2S still wins.
func TestLARDDispatcherScalesPastFrontEnd(t *testing.T) {
	tr := trace.MustGenerate(trace.GenSpec{
		Name: "tiny", Files: 400, AvgFileKB: 4, Requests: 60000,
		AvgReqKB: 3, Alpha: 1.0, LocalityP: 0.3, Seed: 7,
	})
	lard, err := Run(DefaultConfig(LARDServer, 16), tr)
	if err != nil {
		t.Fatal(err)
	}
	disp, err := Run(DefaultConfig(LARDDispatcher, 16), tr)
	if err != nil {
		t.Fatal(err)
	}
	if disp.Throughput < lard.Throughput*1.2 {
		t.Fatalf("dispatcher variant %v should outscale the front-end %v",
			disp.Throughput, lard.Throughput)
	}
	l2s, err := Run(DefaultConfig(L2SServer, 16), tr)
	if err != nil {
		t.Fatal(err)
	}
	if l2s.Throughput <= disp.Throughput {
		t.Fatalf("L2S %v should still beat the dispatcher variant %v",
			l2s.Throughput, disp.Throughput)
	}
	if disp.ForwardedFrac < 0.85 {
		t.Fatalf("dispatcher variant forwards nearly everything, got %.1f%%",
			disp.ForwardedFrac*100)
	}
}

func TestLARDDispatcherSinglePointOfFailure(t *testing.T) {
	tr := testTrace(30000)
	cfg := DefaultConfig(LARDDispatcher, 8)
	cfg.FailNode = 0 // the dispatcher
	cfg.FailAtFrac = 0.5
	r, err := Run(cfg, tr)
	if err != nil {
		t.Fatal(err)
	}
	if float64(r.Aborted) < 0.4*float64(tr.NumRequests()) {
		t.Errorf("only %d of %d requests lost after dispatcher failure",
			r.Aborted, tr.NumRequests())
	}
}

func TestLARDDispatcherSingleNode(t *testing.T) {
	tr := testTrace(5000)
	r, err := Run(DefaultConfig(LARDDispatcher, 1), tr)
	if err != nil {
		t.Fatal(err)
	}
	if r.Completed == 0 || r.ForwardedFrac != 0 {
		t.Fatalf("single-node dispatcher: %+v", r)
	}
}

// Cross-validation against closed-network theory: a single-node cluster
// with a window of W outstanding connections is a closed queueing network
// with W customers. Exact MVA (with exponential-service assumptions) lower
// bounds the deterministic-service simulator, and the asymptotic bound
// caps both, so the simulated throughput must fall in between at every
// window size.
func TestWindowThroughputMatchesMVA(t *testing.T) {
	sizes := make([]int64, 50)
	for i := range sizes {
		sizes[i] = 16 << 10
	}
	tr := uniformTrace(sizes, 40000)

	costs := DefaultConfig(Traditional, 1).Costs
	const skb = 16.0
	closed := &qnet.ClosedNetwork{
		Demands: []float64{
			costs.RouterTime(costs.ReqKB) + costs.RouterTime(skb), // router in+out
			costs.NIInTime(),
			costs.ParseTime() + costs.ReplyTime(skb), // CPU
			costs.NIOutTime(skb),
		},
	}
	for _, w := range []int{1, 2, 4, 8, 16} {
		cfg := DefaultConfig(Traditional, 1)
		cfg.WindowPerNode = w
		r, err := Run(cfg, tr)
		if err != nil {
			t.Fatal(err)
		}
		mva, err := closed.MVA(w)
		if err != nil {
			t.Fatal(err)
		}
		upper := closed.AsymptoticBounds(w)
		if r.Throughput < mva.Throughput*0.98 {
			t.Errorf("window %d: simulated %v below the MVA prediction %v",
				w, r.Throughput, mva.Throughput)
		}
		if r.Throughput > upper*1.02 {
			t.Errorf("window %d: simulated %v above the asymptotic bound %v",
				w, r.Throughput, upper)
		}
	}
}
