package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"runtime/debug"
	"time"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/policy"
	"repro/internal/server"
	"repro/internal/trace"
)

// simSeed seeds the simulator's own RNGs. It is fixed: the workload seed
// shapes only the generated trace, which is all the program receives.
const simSeed = 5

func simConfig(w workload) server.Config {
	cfg := server.NewConfig(server.L2SServer, w.simNodes, server.WithSeed(simSeed))
	if w.simCache != 0 {
		server.WithCacheBytes(w.simCache)(&cfg)
	}
	return cfg
}

// simRep is one timed server.Run.
type simRep struct {
	res    server.Result
	stats  *core.Stats
	wall   time.Duration
	rt     runtimeCounters
	digest string
}

// runSim times one untraced server.Run.
func runSim(cfg server.Config, tr *trace.Trace) (simRep, error) {
	rt0, t0 := readRuntime(), time.Now()
	res, err := server.Run(cfg, tr)
	rep := simRep{wall: time.Since(t0), rt: readRuntime().sub(rt0)}
	if err != nil {
		return rep, err
	}
	rep.res, rep.stats = res, res.L2S
	rep.digest, err = simDigest(res, res.L2S)
	return rep, err
}

// peakLive runs one more, untimed repetition with the collector marking
// at every 2% of heap growth and returns the highest live heap it marked:
// the peak of what the simulator and the trace hold, to within about 2%. At the default pacing a repetition may see no mark at all, so
// the live heap sampled during timed repetitions depends on when marks
// happen to fall, and the heap in use jumps with the collector's goal.
func peakLive(cfg server.Config, tr *trace.Trace) (uint64, error) {
	settle()
	defer debug.SetGCPercent(debug.SetGCPercent(2))
	peaks := startPeakSampler()
	_, err := server.Run(cfg, tr)
	heap, _ := peaks.finish()
	return heap, err
}

// simDigest hashes every simulated output — the Result, the gossip count
// JSON leaves out, and the L2S control-plane stats — so that runs can be
// compared bit for bit. Floats encode in their shortest exact form.
func simDigest(res server.Result, st *core.Stats) (string, error) {
	res.L2S = st
	b, err := json.Marshal(struct {
		Result server.Result
		Gossip uint64
	}{res, res.GossipMessages})
	if err != nil {
		return "", fmt.Errorf("digest: %w", err)
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:]), nil
}

// checkSim verifies a run's bookkeeping: no request aborted, every trace
// request completed, and the measured completions are exactly those a
// closed loop leaves after warm-up. In a closed loop of window W, the
// completion that injects request warmIdx starts the measurement and is
// itself dropped, so warmIdx-W+1 completions fall before it.
func checkSim(cfg server.Config, tr *trace.Trace, res server.Result) error {
	n := tr.NumRequests()
	warm := int(cfg.WarmFraction * float64(n))
	window := cfg.WindowPerNode * cfg.Nodes
	want := uint64(n - (warm - window + 1))
	if res.Aborted != 0 {
		return fmt.Errorf("sim: %d requests aborted", res.Aborted)
	}
	if res.Completed != want {
		return fmt.Errorf("sim: %d measured completions, want %d", res.Completed, want)
	}
	return nil
}

// simTrace is what the traced server.Run measured at each boundary.
type simTrace struct {
	rep    simRep
	tracer *stackTracer
	reg    *obs.Registry
}

// runTracedSim runs the workload once with every policy and environment
// call wrapped, plus the run's metric registry. The inner policy is built
// exactly as server.Run builds it, with the same policy.Options, so the
// digest must match the untraced run's.
func runTracedSim(cfg server.Config, tr *trace.Trace, rec *recorder) (simTrace, error) {
	spec, err := policy.ParseSpec(cfg.System.String())
	if err != nil {
		return simTrace{}, err
	}
	popts := policy.Options{
		LARD:             cfg.LARD,
		DispatchQuerySec: cfg.DispatchQuerySec,
		Seed:             cfg.Seed,
		DNSTTL:           cfg.DNSTTL,
		L2S:              cfg.L2S,
		Files:            min(tr.NumFiles(), tr.NumRequests()),
	}
	root := rec.open("server.Run", 0, -1)
	t := newStackTracer(rec, root)
	var inner policy.Distributor
	reg := obs.NewRegistry()
	traced := cfg
	server.WithMetrics(reg)(&traced)
	server.WithCustomPolicy(func(env policy.Env) policy.Distributor {
		d, err := spec.Build(wrapEnv(env, t), popts)
		if err != nil {
			// server.Run reports a panic while building as its error.
			panic(err)
		}
		inner = d
		return wrapDistributor(d, t)
	})(&traced)

	rt0, t0 := readRuntime(), time.Now()
	res, err := server.Run(traced, tr)
	rep := simRep{wall: time.Since(t0), rt: readRuntime().sub(rt0)}
	rec.close(root)
	if err != nil {
		return simTrace{}, err
	}
	// Result.L2S is nil behind a wrapper; the stats come from the inner
	// policy instead.
	if l2s, ok := inner.(*core.L2S); ok {
		st := l2s.Stats()
		rep.stats = &st
	}
	rep.res = res
	if rep.digest, err = simDigest(res, rep.stats); err != nil {
		return simTrace{}, err
	}
	return simTrace{rep: rep, tracer: t, reg: reg}, nil
}

// tracedEnv times the environment calls that enqueue network work.
type tracedEnv struct {
	policy.Env
	lr policy.LoadReporter
	pr policy.PairRater
	t  *stackTracer
}

// wrapEnv wraps the simulator's environment, which implements LoadReporter
// and PairRater; both are forwarded so the policy takes the same paths.
func wrapEnv(env policy.Env, t *stackTracer) policy.Env {
	lr, okLR := env.(policy.LoadReporter)
	pr, okPR := env.(policy.PairRater)
	if !okLR || !okPR {
		panic("perfbench: environment lacks LoadReporter or PairRater")
	}
	return &tracedEnv{Env: env, lr: lr, pr: pr, t: t}
}

func (e *tracedEnv) SendControl(from, to int, onDeliver func()) {
	e.t.enter("netsim.SendControl", 0)
	e.Env.SendControl(from, to, onDeliver)
	e.t.exit()
}

func (e *tracedEnv) BroadcastControl(from int, onDeliver func()) {
	e.t.enter("netsim.BroadcastControl", 0)
	e.Env.BroadcastControl(from, onDeliver)
	e.t.exit()
}

func (e *tracedEnv) BroadcastLoadReport(from, load int, sink policy.LoadReportSink) {
	e.t.enter("netsim.BroadcastLoadReport", 0)
	e.lr.BroadcastLoadReport(from, load, sink)
	e.t.exit()
}

func (e *tracedEnv) PairRateKBps(a, b int) float64 { return e.pr.PairRateKBps(a, b) }

// sampleEvery picks which requests keep full spans: one in this many.
const sampleEvery = 1024

// tracedDist times every policy call. It tags one request in sampleEvery
// with an id, matched from Initial to Service to OnComplete by file:
// concurrent requests for one file may swap ids, which leaves the
// per-boundary aggregates exact.
type tracedDist struct {
	in policy.Distributor
	t  *stackTracer

	arrivals uint64
	lastID   uint64                     // id of the latest Service call, for its OnAssign
	arrived  map[policy.FileID][]uint64 // sampled, awaiting Service
	assigned map[policy.FileID][]uint64 // sampled, awaiting OnComplete
}

// wrapDistributor keeps the optional interfaces the simulator looks for
// (ClientAware, Dispatched) exactly as the inner policy has them.
func wrapDistributor(in policy.Distributor, t *stackTracer) policy.Distributor {
	d := &tracedDist{in: in, t: t, arrived: map[policy.FileID][]uint64{}, assigned: map[policy.FileID][]uint64{}}
	ca, isCA := in.(policy.ClientAware)
	dp, isD := in.(policy.Dispatched)
	switch {
	case isCA && isD:
		return struct {
			*tracedDist
			policy.ClientAware
			policy.Dispatched
		}{d, ca, dp}
	case isCA:
		return struct {
			*tracedDist
			policy.ClientAware
		}{d, ca}
	case isD:
		return struct {
			*tracedDist
			policy.Dispatched
		}{d, dp}
	}
	return d
}

func pop(m map[policy.FileID][]uint64, f policy.FileID) uint64 {
	q := m[f]
	if len(q) == 0 {
		return 0
	}
	if len(q) == 1 {
		delete(m, f)
	} else {
		m[f] = q[1:]
	}
	return q[0]
}

func (d *tracedDist) Name() string  { return d.in.Name() }
func (d *tracedDist) FrontEnd() int { return d.in.FrontEnd() }

func (d *tracedDist) Initial(f policy.FileID) int {
	d.arrivals++
	var id uint64
	if d.arrivals%sampleEvery == 0 {
		id = d.arrivals
		d.arrived[f] = append(d.arrived[f], id)
	}
	d.t.enter("policy.Initial", id)
	n := d.in.Initial(f)
	d.t.exit()
	return n
}

func (d *tracedDist) Service(initial int, f policy.FileID) int {
	id := pop(d.arrived, f)
	if id != 0 {
		d.assigned[f] = append(d.assigned[f], id)
	}
	d.lastID = id
	d.t.enter("policy.Service", id)
	n := d.in.Service(initial, f)
	d.t.exit()
	return n
}

func (d *tracedDist) OnAssign(n int) {
	d.t.enter("policy.OnAssign", d.lastID)
	d.in.OnAssign(n)
	d.t.exit()
}

func (d *tracedDist) OnComplete(n int, f policy.FileID) {
	d.t.enter("policy.OnComplete", pop(d.assigned, f))
	d.in.OnComplete(n, f)
	d.t.exit()
}
