// Package perf defines the simulator's hot-path microbenchmarks as plain
// functions so they can run two ways: under `go test -bench` (see
// perf_test.go) and in-process through testing.Benchmark from cmd/benchjson,
// which writes the machine-readable BENCH_simcore.json baseline that future
// performance PRs diff against.
//
// Every benchmark reports allocations: the simulation core is meant to be
// allocation-free in steady state (pooled events, intrusive LRU), and these
// numbers are the regression guard for that property.
package perf

import (
	"math/rand"
	"sync"
	"testing"

	"repro/internal/cache"
	"repro/internal/cluster"
	"repro/internal/netsim"
	"repro/internal/server"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/trace"
	"repro/internal/zipf"
)

// Bench is one named hot-path benchmark. Requests is the number of
// simulated requests one benchmark op completes (0 when the op is not
// request-shaped); it converts ns/op into requests per wall-clock second.
type Bench struct {
	Name     string
	Fn       func(b *testing.B)
	Requests int
}

// Benchmarks returns the hot-path suite in a stable order.
func Benchmarks() []Bench {
	return []Bench{
		{Name: "EngineScheduleFire", Fn: EngineScheduleFire},
		{Name: "EngineScheduleFireDeep", Fn: EngineScheduleFireDeep},
		{Name: "EngineCancel", Fn: EngineCancel},
		{Name: "ResourceAcquire", Fn: ResourceAcquire},
		{Name: "ResourceAcquireQueued", Fn: ResourceAcquireQueued},
		{Name: "LRUAccess", Fn: LRUAccess},
		{Name: "LRUAccessEvict", Fn: LRUAccessEvict},
		{Name: "ZipfSample10k", Fn: ZipfSample10k},
		{Name: "ZipfSample1M", Fn: ZipfSample1M},
		{Name: "HistAdd", Fn: HistAdd},
		{Name: "GossipBroadcastFlat", Fn: GossipBroadcastFlat},
		{Name: "ServerRun", Fn: ServerRun, Requests: serverRunRequests},
		{Name: "ServerRunHetero", Fn: ServerRunHetero, Requests: serverRunRequests},
	}
}

func nop() {}

// EngineScheduleFire measures one schedule plus one fire against an empty
// calendar — the pool's steady-state round trip.
func EngineScheduleFire(b *testing.B) {
	b.ReportAllocs()
	e := sim.NewEngine()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.Schedule(1, nop)
		e.Step()
	}
}

// EngineScheduleFireDeep measures the same round trip with 1024 events
// pending, so each op pays a realistic sift through the heap.
func EngineScheduleFireDeep(b *testing.B) {
	b.ReportAllocs()
	e := sim.NewEngine()
	rng := rand.New(rand.NewSource(1))
	delays := make([]float64, 4096)
	for i := range delays {
		delays[i] = rng.Float64() * 10
	}
	for i := 0; i < 1024; i++ {
		e.Schedule(delays[i], nop)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.Schedule(delays[i%len(delays)], nop)
		e.Step()
	}
}

// EngineCancel measures schedule+cancel churn: the cancelled event must be
// reclaimed without firing and without leaking pool slots.
func EngineCancel(b *testing.B) {
	b.ReportAllocs()
	e := sim.NewEngine()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ev := e.Schedule(1, nop)
		e.Schedule(2, nop)
		ev.Cancel()
		e.Step()
	}
}

// GossipBroadcastFlat measures one flattened 256-node gossip round on a
// registered fleet: sender charges, epoch admission, and the single pooled
// delivery event. Rounds run back to back, so after the first each one
// should take the O(1) epoch fast path — the operation the 1024-node
// figure sweeps execute hundreds of thousands of times.
func GossipBroadcastFlat(b *testing.B) {
	b.ReportAllocs()
	eng := sim.NewEngine()
	cfg := netsim.DefaultConfig()
	cfg.BatchFanout = 1
	nw := netsim.New(eng, cfg)
	nodes := make([]*cluster.Node, 256)
	for i := range nodes {
		nodes[i] = cluster.NewNode(eng, i, 1<<20)
	}
	nw.RegisterFleet(nodes)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		nw.Broadcast(nodes[i%len(nodes)], nodes, 0.004, nil)
		eng.Run()
	}
}

// ResourceAcquire measures the FCFS service-center enqueue/complete cycle,
// the single most frequent operation in a cluster run.
func ResourceAcquire(b *testing.B) {
	b.ReportAllocs()
	e := sim.NewEngine()
	r := sim.NewResource(e, "cpu", 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r.Acquire(0.001, nil)
		e.Step()
	}
}

// ResourceAcquireQueued measures the same cycle on a resource that stays 64
// jobs deep, the saturated service centers of a closed-loop cluster run:
// each acquire queues behind 63 others and each step retires the oldest.
func ResourceAcquireQueued(b *testing.B) {
	b.ReportAllocs()
	e := sim.NewEngine()
	r := sim.NewResource(e, "cpu", 1)
	for i := 0; i < 63; i++ {
		r.Acquire(0.001, nil)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r.Acquire(0.001, nil)
		e.Step()
	}
}

// lruStream is a fixed pseudo-Zipf access stream shared by the LRU benches.
func lruStream() ([]cache.FileID, []int64) {
	rng := rand.New(rand.NewSource(1))
	ids := make([]cache.FileID, 16384)
	sizes := make([]int64, len(ids))
	for i := range ids {
		// Square a uniform draw to skew popularity toward low ids.
		u := rng.Float64()
		ids[i] = cache.FileID(u * u * 4096)
		sizes[i] = int64(rng.Intn(64<<10) + 1<<10)
	}
	return ids, sizes
}

// LRUAccess measures the cache's hit/miss path with capacity evictions
// under a skewed stream.
func LRUAccess(b *testing.B) {
	b.ReportAllocs()
	ids, sizes := lruStream()
	c := cache.NewLRU(16 << 20)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		j := i % len(ids)
		c.Access(ids[j], sizes[j])
	}
}

// LRUAccessEvict interleaves accesses with explicit invalidations, the
// pattern cache-coherent policies generate.
func LRUAccessEvict(b *testing.B) {
	b.ReportAllocs()
	ids, sizes := lruStream()
	c := cache.NewLRU(16 << 20)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		j := i % len(ids)
		c.Access(ids[j], sizes[j])
		if i%4 == 3 {
			c.Evict(ids[(j+len(ids)/2)%len(ids)])
		}
	}
}

// zipfSample measures one popularity draw against a fixed catalog size.
// Run at two sizes two decades apart, the pair demonstrates the guide
// table's O(1) expected cost: ns/op stays flat where the binary-search
// inversion it replaced grew with log F (see the reference benchmarks in
// internal/zipf).
func zipfSample(b *testing.B, files int64) {
	b.ReportAllocs()
	d := zipf.New(0.8, files)
	rng := rand.New(rand.NewSource(7))
	b.ResetTimer()
	var sink int64
	for i := 0; i < b.N; i++ {
		sink += d.Sample(rng)
	}
	benchSink = sink
}

// ZipfSample10k draws from a 10^4-file catalog.
func ZipfSample10k(b *testing.B) { zipfSample(b, 10_000) }

// ZipfSample1M draws from a 10^6-file catalog.
func ZipfSample1M(b *testing.B) { zipfSample(b, 1_000_000) }

// benchSink defeats dead-code elimination in value-returning benches.
var benchSink int64

// HistAdd measures one latency record into the log2 histogram — paid once
// per completed request in every simulated run.
func HistAdd(b *testing.B) {
	b.ReportAllocs()
	rng := rand.New(rand.NewSource(9))
	samples := make([]float64, 8192)
	for i := range samples {
		samples[i] = rng.ExpFloat64() * 0.05 // latency-shaped: tens of ms
	}
	h := stats.NewHistogram()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h.Add(samples[i%len(samples)])
	}
}

// serverRunRequests is the trace length of the end-to-end bench, exported
// through Bench.Requests so benchjson can derive requests per second.
const serverRunRequests = 4000

var (
	serverTraceOnce sync.Once
	serverTrace     *trace.Trace
)

func serverRunTrace() *trace.Trace {
	serverTraceOnce.Do(func() {
		serverTrace = trace.MustGenerate(trace.GenSpec{
			Name: "perf", Files: 600, AvgFileKB: 6, Requests: serverRunRequests,
			AvgReqKB: 5, Alpha: 0.8, LocalityP: 0.3, Seed: 3,
		})
	})
	return serverTrace
}

// ServerRun is the end-to-end number: one full L2S cluster run over a small
// fixed-seed trace, allocations included.
func ServerRun(b *testing.B) {
	b.ReportAllocs()
	tr := serverRunTrace()
	cfg := server.NewConfig(server.L2SServer, 8,
		server.WithSeed(5), server.WithCacheBytes(2<<20))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := server.Run(cfg, tr); err != nil {
			b.Fatal(err)
		}
	}
}

// ServerRunHetero is the profiled counterpart of ServerRun: the same trace
// on a two-tier cluster, so the per-node rate scaling and capacity-weight
// plumbing are on the measured path.
func ServerRunHetero(b *testing.B) {
	b.ReportAllocs()
	tr := serverRunTrace()
	fast := server.NodeProfile{CPUSpeed: 2, DiskSpeed: 8, CacheBytes: 4 << 20}
	slow := server.NodeProfile{CPUSpeed: 1, DiskSpeed: 1, CacheBytes: 2 << 20}
	cfg := server.NewConfig(server.L2SServer, 8,
		server.WithSeed(5), server.WithCacheBytes(2<<20),
		server.Tiered(fast, slow, 2))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := server.Run(cfg, tr); err != nil {
			b.Fatal(err)
		}
	}
}
