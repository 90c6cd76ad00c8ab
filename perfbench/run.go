package main

import (
	"errors"
	"fmt"
	"net/http"
	"os"
	"runtime"
	"time"

	"repro/internal/cache"
	"repro/internal/native"
	"repro/internal/server"
	"repro/internal/trace"
)

const (
	// rounds is how many times the live part alternates its two passes,
	// so that both draw on every stretch of it.
	rounds = 10
	// capacityReqs is the length of a closed-loop pass. Each node pushes
	// its server-set table to a peer every two seconds, a burst of CPU;
	// the passes together must last long enough to hold many of them.
	capacityReqs = 5000
)

// lateLimitMs and drainLimit mark an open-loop pass invalid: a generator
// that starts requests this late, or a backlog this slow to clear after
// the last due time, means completions fell behind the schedule.
const (
	lateLimitMs = 250
	drainLimit  = time.Second
)

// drainWait bounds the wait for a stopped cluster's goroutines.
const drainWait = 5 * time.Second

// setup is one set-up: both traces generated, the live cluster started on
// its stream and warmed.
type setup struct {
	tr    *trace.Trace // simulated
	store *patternStore
	seg   []cache.FileID // the live cluster's part of its stream
	cl    *native.Cluster
	gen   time.Duration // generating both traces
}

// newSetup builds a set-up; wrap, when set, wraps the cluster's store.
func newSetup(w workload, seed int64, wrap func(*patternStore) native.Store) (setup, error) {
	simSpec, err := w.sim(seed)
	if err != nil {
		return setup{}, err
	}
	liveSpec, err := w.live(seed)
	if err != nil {
		return setup{}, err
	}
	t0 := time.Now()
	tr, err := trace.Generate(simSpec)
	if err != nil {
		return setup{}, err
	}
	live, err := trace.Generate(liveSpec)
	if err != nil {
		return setup{}, err
	}
	s := setup{tr: tr, gen: time.Since(t0), store: newPatternStore(live)}
	// The cluster replays its stream from 40% on, past the shot-noise
	// ramp-up, like the simulator's warm-up fraction.
	s.seg = live.Requests[len(live.Requests)*2/5:]
	if len(s.seg) <= nativeWarm {
		return setup{}, errors.New("live stream too short for the warm-up")
	}
	var store native.Store = s.store
	if wrap != nil {
		store = wrap(s.store)
	}
	s.cl, err = startCluster(store, s.store, s.seg)
	return s, err
}

// nativePass replays reqs through the live cluster, at their due times or,
// for a nil due, closed loop, and checks it: every response correct, the
// schedule kept. It returns the process CPU time the pass took.
func nativePass(r *report, s setup, reqs []cache.FileID, due []time.Duration, ts *tracedStore) (loadResult, time.Duration) {
	lg := newLoadgen(s.cl.URLs(), s.store)
	defer lg.close()
	cpu0 := cpuTime()
	res := lg.run(reqs, due, ts)
	cpu := cpuTime() - cpu0
	r.Attempted += uint64(len(res.reqs))
	r.Failed += res.count(failed)
	if n := res.count(wrong); n != 0 {
		r.fail("%d responses with the wrong body", n)
	}
	if due != nil {
		if late := quantile(res.lat(true, all), 0.99); late > lateLimitMs || res.drain > drainLimit {
			r.fail("load generator fell behind its schedule (late p99 %.1f ms, drain %v)", late, res.drain)
		}
	}
	if res.count(completed) == 0 {
		r.fail("no request completed")
	}
	return res, cpu
}

// simRun runs one untraced repetition and checks it against the first.
func simRun(r *report, cfg server.Config, tr *trace.Trace, digest *string) (simRep, error) {
	rep, err := runSim(cfg, tr)
	n := uint64(tr.NumRequests())
	r.Attempted += n
	if err != nil {
		r.Failed += n
		return rep, fmt.Errorf("server.Run: %w", err)
	}
	r.Failed += rep.res.Aborted
	if err := checkSim(cfg, tr, rep.res); err != nil {
		r.fail("%v", err)
	}
	if *digest != "" && rep.digest != *digest {
		r.fail("simulated results differ between repetitions (%s vs %s)", rep.digest, *digest)
	}
	*digest = rep.digest
	return rep, nil
}

// runUntraced measures the end-to-end metrics. Each item starts after a
// collection, so that no item pays for another's garbage, and the
// simulator never runs beside a live cluster, whose heartbeats and table
// pushes would otherwise count in its time:
//
//   - w.setupReps set-ups, each after the previous one's cluster has
//     stopped and drained, with a share of the simulator's repetitions
//     between them;
//   - rounds rounds on the live cluster of the last set-up, each an
//     open-loop pass of the stream at nativeRate, for latency, and a
//     closed-loop pass of capacityReqs requests, for CPU per request (at
//     saturation, so idle wake-ups do not count);
//   - with the cluster stopped and drained, the rest of the simulator's
//     repetitions (half of d in all, at least three), then peakLive.
//
// The host's speed drifts in phases that move whole runs. Spreading the
// repetitions over the run, and reading trace generation and server.Run
// against the reference loop (see refClock), steadies the simulator's
// figures; the live cluster's do not follow the loop and are reported raw.
//
// Latency pools every pass's requests, and CPU per request every capacity
// pass's CPU time: each node pushes its whole server-set table to a peer
// every two seconds, which costs a burst of CPU that a pass may or may not
// contain. The same bursts stall a few percent of requests, so latency
// percentiles from p90 up swing between the normal tail and the stalls
// from run to run, and only the median is an end-to-end metric; the
// traced run reports the tail (http.p90_ms, http.p99_ms). What the live
// cluster holds at a collection mark depends on whether a table push is
// in flight, so its memory is a per-layer figure (native.heap_mb).
func runUntraced(w workload, seed int64, d time.Duration) (*report, error) {
	r := newReport()
	idle := runtime.NumGoroutine()
	var s setup
	stop := func() {
		if s.cl == nil {
			return
		}
		s.cl.Shutdown()
		s.cl = nil // let the nodes' caches go
		if !drain(idle) {
			fmt.Fprintln(os.Stderr, "stopped cluster still running after", drainWait)
		}
	}
	defer stop()
	ref := &refClock{}
	cfg := simConfig(w)
	var nsPerReq []float64
	var simTime time.Duration
	var digest string
	// simulate reads the reference loop, then runs repetitions on the last
	// set-up's trace, which every set-up generates alike, until the
	// simulator has used budget of the run and made at least atLeast
	// repetitions.
	simulate := func(budget time.Duration, atLeast int) error {
		ref.read()
		for simTime < budget || len(nsPerReq) < atLeast {
			settle()
			rep, err := simRun(r, cfg, s.tr, &digest)
			if err != nil {
				return err
			}
			simTime += rep.wall
			nsPerReq = append(nsPerReq, float64(rep.wall.Nanoseconds())/float64(s.tr.NumRequests()))
			ref.read()
		}
		return nil
	}
	var gens, rests []float64
	for k := 0; k < w.setupReps; k++ {
		stop()
		if err := simulate(time.Duration(k)*d/time.Duration(2*w.setupReps), 0); err != nil {
			return nil, err
		}
		settle()
		t0 := time.Now()
		var err error
		if s, err = newSetup(w, seed, nil); err != nil {
			return nil, err
		}
		gens = append(gens, s.gen.Seconds())
		rests = append(rests, (time.Since(t0) - s.gen).Seconds())
	}

	arr := newArrivals(s.seg[nativeWarm:], seed)
	var lat []float64
	var cpu time.Duration
	var served uint64
	for k := 0; k < rounds; k++ {
		settle()
		reqs, due := arr.pass(nativeRate, d/(4*rounds))
		res, _ := nativePass(r, s, reqs, due, nil)
		lat = append(lat, res.lat(false, all)...)

		settle()
		res, passCPU := nativePass(r, s, arr.take(capacityReqs), nil, nil)
		cpu += passCPU
		served += res.count(completed)
	}
	stop()
	if err := simulate(d/2, 3); err != nil {
		return nil, err
	}
	heap, err := peakLive(cfg, s.tr)
	if err != nil {
		return nil, err
	}
	setups := make([]float64, len(gens))
	for k := range setups {
		setups[k] = ref.nominal(gens[k]) + rests[k]
	}
	fmt.Fprintf(os.Stderr, "%s seed %d: sim digest %s\n  set-up s %.3f\n  traces s %.3f\n  sim ns/request %.0f\n  reference ms %.1f\n",
		w.name, seed, digest, setups, gens, nsPerReq, ref.all)

	r.set("setup_s", "s", median(setups))
	r.set("sim_ns_per_req", "ns", ref.nominal(median(nsPerReq)))
	r.set("peak_heap_mb", "MB", float64(heap)/(1<<20))
	r.set("http_p50_ms", "ms", quantile(lat, 0.5))
	r.set("http_cpu_us_per_req", "us", ratio(float64(cpu.Microseconds()), float64(served)))
	return r, nil
}

// runTraced measures the per-layer metrics: one set-up with the live
// cluster's store wrapped, a closed-loop pass untraced and then traced
// (for the tracing overhead), a traced open-loop pass whose counters give
// the live cluster's shares, and one untraced and one traced simulator
// repetition, whose simulated results must be bit-identical.
func runTraced(w workload, seed int64, d time.Duration, spanFile string) (*report, error) {
	r := newReport()
	idle := runtime.NumGoroutine()
	rec := newRecorder()
	var ts *tracedStore
	setupSpan := rec.open("setup", 0, -1)
	s, err := newSetup(w, seed, func(ps *patternStore) native.Store {
		ts = &tracedStore{patternStore: ps, rec: rec}
		return ts
	})
	rec.close(setupSpan)
	if err != nil {
		return nil, err
	}

	settle()
	peaks := startPeakSampler()
	arr := newArrivals(s.seg[nativeWarm:], seed)
	_, plainCPU := nativePass(r, s, arr.take(capacityReqs), nil, nil)
	ts.on.Store(true)
	_, tracedCPU := nativePass(r, s, arr.take(capacityReqs), nil, ts)
	settle()
	before := readCluster(s.cl, rec)
	gets0, getNanos0 := ts.gets.Load(), ts.getNanos.Load()
	rt0 := readRuntime()
	reqs, due := arr.pass(nativeRate, d/2)
	res, _ := nativePass(r, s, reqs, due, ts)
	rt := readRuntime().sub(rt0)
	gets, getNanos := ts.gets.Load()-gets0, ts.getNanos.Load()-getNanos0
	after := readCluster(s.cl, rec)
	clusterHeap := liveHeap()
	s.cl.Shutdown()
	s.cl = nil
	_, goroutines := peaks.finish()
	drain(idle)
	clusterHeap -= liveHeap()

	cfg := simConfig(w)
	var digest string
	settle()
	plainSim, err := simRun(r, cfg, s.tr, &digest)
	if err != nil {
		return nil, err
	}
	settle()
	st, err := runTracedSim(cfg, s.tr, rec)
	if err != nil {
		return nil, err
	}
	n := float64(s.tr.NumRequests())
	r.Attempted += uint64(n)
	r.Failed += st.rep.res.Aborted
	if st.rep.digest != plainSim.digest {
		r.fail("traced simulation differs from the untraced one (%s vs %s)", st.rep.digest, plainSim.digest)
	}
	if got := st.reg.Counter("requests_completed_total").Value(); got != uint64(n) {
		r.fail("traced simulation completed %d of %d requests", got, uint64(n))
	}
	fmt.Fprintf(os.Stderr, "%s seed %d: sim digest %s\n", w.name, seed, digest)

	// The simulator's shares come from the measured interval of Result;
	// whole-run counts from the registry, per trace request.
	sr, t := st.rep.res, st.tracer
	r.set("trace.gen_s", "s", s.gen.Seconds())
	r.set("trace.sim_overhead_frac", "frac", st.rep.wall.Seconds()/plainSim.wall.Seconds()-1)
	r.set("trace.http_overhead_frac", "frac", float64(tracedCPU)/float64(plainCPU)-1)

	r.set("sim.events_per_req", "count", float64(sr.Events)/n)
	r.set("sim.ns_per_event", "ns", float64(plainSim.wall.Nanoseconds())/float64(sr.Events))
	r.set("cluster.cpu_util", "frac", sr.MeanCPUUtil)
	r.set("cluster.disk_util", "frac", sr.MeanDiskUtil)
	r.set("cluster.router_util", "frac", sr.RouterUtil)
	r.set("cluster.load_imbalance", "ratio", sr.LoadImbalance)
	r.set("cache.miss_rate", "frac", sr.MissRate)
	r.set("cache.evictions_per_req", "count", float64(st.reg.Counter("cache_evictions_total").Value())/n)
	r.set("netsim.msgs_per_req", "count", ratio(float64(sr.ControlMessages), float64(sr.Completed)))
	r.set("netsim.gossip_per_req", "count", ratio(float64(sr.GossipMessages), float64(sr.Completed)))
	var enq boundary
	for _, name := range []string{"netsim.SendControl", "netsim.BroadcastControl", "netsim.BroadcastLoadReport"} {
		b := t.get(name)
		enq.count += b.count
		enq.total += b.total
	}
	r.set("netsim.enqueue_ns", "ns", ratio(float64(enq.total), float64(enq.count)))
	dec := t.get("policy.Service")
	r.set("policy.decisions", "count", float64(dec.count))
	r.set("policy.ns_per_decision", "ns", ratio(float64(dec.self()), float64(dec.count)))
	r.set("policy.forwarded_frac", "frac", sr.ForwardedFrac)
	if cs := st.rep.stats; cs != nil {
		r.set("core.set_broadcasts", "count", float64(cs.SetBroadcasts))
		r.set("core.load_broadcasts", "count", float64(cs.LoadBroadcasts))
		r.set("core.set_grows", "count", float64(cs.SetGrows))
		r.set("core.replicated_frac", "frac", cs.ReplicatedFrac)
	}
	r.set("runtime.sim_alloc_bytes_per_req", "B", float64(plainSim.rt.allocBytes)/n)
	r.set("runtime.http_alloc_bytes_per_req", "B", ratio(float64(rt.allocBytes), float64(res.count(completed))))
	r.set("runtime.gc_cycles", "count", float64(plainSim.rt.gcCycles+rt.gcCycles))
	r.set("runtime.goroutines_peak", "count", float64(goroutines))

	done := float64(res.count(completed))
	handoff := func(o outcome) bool { return o.handoff }
	local := func(o outcome) bool { return !o.handoff }
	r.set("http.p90_ms", "ms", quantile(res.lat(false, all), 0.9))
	r.set("http.p99_ms", "ms", quantile(res.lat(false, all), 0.99))
	r.set("http.local_p50_ms", "ms", zeroNaN(median(res.lat(false, local))))
	r.set("http.handoff_p50_ms", "ms", zeroNaN(median(res.lat(false, handoff))))
	r.set("loadgen.late_p99_ms", "ms", quantile(res.lat(true, all), 0.99))
	r.set("loadgen.conns", "count", float64(res.conns))
	r.set("native.handoff_frac", "frac", ratio(float64(len(res.lat(false, handoff))), done))
	delta := make([]uint64, len(after.buckets))
	for i := range delta {
		delta[i] = after.buckets[i] - before.buckets[i]
	}
	r.set("native.server_p50_ms", "ms", 1e3*histQuantile(native.RequestBuckets, delta, 0.5))
	a, b := after.stats, before.stats
	hits, misses := float64(a.Hits-b.Hits), float64(a.Misses-b.Misses)
	r.set("native.hit_rate", "frac", ratio(hits, hits+misses))
	r.set("native.heap_mb", "MB", float64(clusterHeap)/(1<<20))
	r.set("store.gets_per_req", "count", float64(gets)/done)
	r.set("store.get_us", "us", ratio(float64(getNanos)/1e3, float64(gets)))
	r.set("native.gossip_per_req", "count", float64(a.GossipOut-b.GossipOut)/done)
	r.set("native.gossip_failed", "count", float64(a.GossipFail-b.GossipFail))
	r.set("native.handoff_retries", "count", float64(a.Retries-b.Retries))
	r.set("native.failovers", "count", float64(a.Failovers-b.Failovers))

	if err := rec.write(spanFile); err != nil {
		return nil, err
	}
	return r, nil
}

// drain waits, up to drainWait, until no more than idle goroutines are
// left: a stopped cluster's hand-off and gossip goroutines finish their
// retries against the stopped peers and, until they do, keep its nodes
// and their caches reachable. The nodes' clients use the default
// transport, whose idle connections are closed first.
func drain(idle int) bool {
	http.DefaultTransport.(*http.Transport).CloseIdleConnections()
	deadline := time.Now().Add(drainWait)
	for runtime.NumGoroutine() > idle {
		if time.Now().After(deadline) {
			return false
		}
		time.Sleep(10 * time.Millisecond)
	}
	return true
}

// zeroNaN maps the NaN of an empty sample to 0, which JSON can carry.
func zeroNaN(v float64) float64 {
	if v != v {
		return 0
	}
	return v
}
