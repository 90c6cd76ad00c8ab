package server

import (
	"fmt"
	"math/rand"

	"repro/internal/cache"
	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/netsim"
	"repro/internal/policy"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/trace"
)

// driver wires the cluster model, network, and distribution policy
// together and implements policy.Env.
type driver struct {
	cfg   Config
	eng   *sim.Engine
	tr    *trace.Trace
	nodes []*cluster.Node
	net   *netsim.Network
	dist  policy.Distributor

	// Precomputed per-operation costs.
	niIn, parse, fwd float64

	// Per-node hardware, nil for a homogeneous run: resolved profiles and
	// each node's effective NI per-KB rate (Costs.NIOutKBps capped by the
	// profile's line rate).
	profiles  []cluster.Profile
	niOutKBps []float64

	next     int // next trace request to inject
	inflight int
	warmIdx  int
	failIdx  int

	measuring bool
	measStart float64
	lastDone  float64

	completed uint64
	aborted   uint64
	assigned  uint64
	forwarded uint64
	gossip    uint64 // policy control messages (Env sends + broadcast copies)

	latency *stats.Histogram

	// Persistent-connection state.
	connRNG     *rand.Rand
	connections uint64
	connReqs    uint64

	// Open-loop arrival state. A non-empty schedule replaces the constant
	// ArrivalRate with a piecewise-constant profile; schedIdx/schedRemain
	// track the position inside the (cycling) schedule.
	openLoop    bool
	arrivalRNG  *rand.Rand
	arrivalFn   func() // pre-bound inject-and-reschedule callback
	schedIdx    int
	schedRemain float64

	// Timeline buckets (completions per TimelineBucket interval).
	buckets []uint64

	// Observability (see observe.go): nil/zero means disabled.
	m      runMetrics
	series *seriesProbe

	// Cached optional-interface views of the policy, resolved once at
	// setup instead of type-asserted per request.
	clientAware policy.ClientAware
	dispatched  policy.Dispatched

	// Free lists of pooled per-request and per-reply jobs; the simulation is
	// single-threaded, so plain stacks suffice.
	reqPool []*requestJob
	txPool  []*transmitJob
	lrPool  []*loadReportJob
}

// loadReportJob is the pooled state of one in-flight load broadcast sent
// through the policy.LoadReporter path: the reporting node, the announced
// load, and the sink to hand them back to, with a single pre-bound deliver
// method value instead of a closure per broadcast.
type loadReportJob struct {
	d       *driver
	from    int
	load    int
	sink    policy.LoadReportSink
	deliver func()
}

func (d *driver) getLoadReportJob() *loadReportJob {
	if n := len(d.lrPool); n > 0 {
		j := d.lrPool[n-1]
		d.lrPool = d.lrPool[:n-1]
		return j
	}
	j := &loadReportJob{d: d}
	j.deliver = func() {
		sink, from, load := j.sink, j.from, j.load
		j.sink = nil
		// Release before applying: the sink may immediately broadcast again
		// (load drifted while in flight) and reuse this very job.
		j.d.lrPool = append(j.d.lrPool, j)
		sink.ApplyLoadReport(from, load)
	}
	return j
}

// requestJob is the pooled state of one non-persistent request's lifecycle:
// router in, initial node NI and CPU, distribution decision, optional
// hand-off, service, reply out. Each stage is a method-value callback
// created once per pooled object, replacing the chain of per-request
// closures the driver used to allocate.
type requestJob struct {
	d       *driver
	f       cache.FileID
	skb     float64
	t0      float64
	n0, svc int

	afterRouterIn, afterNIIn, afterParse, decide, afterFwd,
	serve, finish, afterTransmit, afterNIOut, afterRouterOut func()
}

func (d *driver) getRequestJob() *requestJob {
	if n := len(d.reqPool); n > 0 {
		j := d.reqPool[n-1]
		d.reqPool = d.reqPool[:n-1]
		return j
	}
	j := &requestJob{d: d}
	j.afterRouterIn = func() {
		d := j.d
		node0 := d.nodes[j.n0]
		if node0.Failed() {
			j.release()
			d.abortUnassigned()
			return
		}
		node0.NIIn.Acquire(d.niIn, j.afterNIIn)
	}
	j.afterNIIn = func() {
		d := j.d
		cpuCost := d.parse
		if j.n0 == d.dist.FrontEnd() {
			// The front-end's accept+parse+hand-off budget.
			cpuCost = d.cfg.FECostSec
		}
		d.nodes[j.n0].CPU.Acquire(d.cpu(j.n0, cpuCost), j.afterParse)
	}
	j.afterParse = func() {
		j.d.consultDispatcher(j.n0, j.decide)
	}
	j.decide = func() {
		d := j.d
		svc := d.dist.Service(j.n0, j.f)
		j.svc = svc
		d.nodes[svc].AddConnection()
		d.dist.OnAssign(svc)
		d.assigned++
		d.m.assigned.Inc()
		if svc == j.n0 {
			j.serve()
			return
		}
		d.forwarded++
		d.m.forwarded.Inc()
		fwdCost := d.fwd
		if j.n0 == d.dist.FrontEnd() {
			fwdCost = 0 // already inside the front-end budget
		}
		d.nodes[j.n0].CPU.Acquire(d.cpu(j.n0, fwdCost), j.afterFwd)
	}
	j.afterFwd = func() {
		d := j.d
		d.net.Send(d.nodes[j.n0], d.nodes[j.svc], d.cfg.Costs.ReqKB, j.serve)
	}
	j.serve = func() {
		// Service at the chosen node: cache lookup, disk on a miss.
		d := j.d
		node := d.nodes[j.svc]
		if node.Failed() {
			n, f := j.svc, j.f
			j.release()
			d.abortAssigned(n, f)
			return
		}
		hit := node.Cache.Access(j.f, d.tr.Size(j.f))
		if hit {
			j.finish()
		} else {
			d.fetch(j.svc, j.f, j.skb, j.finish)
		}
	}
	j.finish = func() {
		j.d.transmit(j.d.nodes[j.svc], j.skb, j.afterTransmit)
	}
	j.afterTransmit = func() {
		d := j.d
		d.nodes[j.svc].NIOut.Acquire(d.niOut(j.svc, j.skb), j.afterNIOut)
	}
	j.afterNIOut = func() {
		j.d.net.RouterOut(j.skb, j.afterRouterOut)
	}
	j.afterRouterOut = func() {
		d, n, f, t0 := j.d, j.svc, j.f, j.t0
		j.release()
		d.complete(n, f, t0)
	}
	return j
}

func (j *requestJob) release() {
	j.d.reqPool = append(j.d.reqPool, j)
}

// transmitJob is the pooled state of one reply's chunked CPU transmit
// processing (see driver.transmit).
type transmitJob struct {
	d         *driver
	node      *cluster.Node
	remaining float64
	chunk     float64
	first     bool
	done      func()

	step func()
}

func (d *driver) getTransmitJob() *transmitJob {
	if n := len(d.txPool); n > 0 {
		j := d.txPool[n-1]
		d.txPool = d.txPool[:n-1]
		return j
	}
	j := &transmitJob{d: d}
	j.step = func() {
		if j.remaining <= 0 {
			d, done := j.d, j.done
			j.node, j.done = nil, nil
			d.txPool = append(d.txPool, j)
			done()
			return
		}
		kb := j.chunk
		if kb > j.remaining {
			kb = j.remaining
		}
		j.remaining -= kb
		cost := kb / j.d.cfg.Costs.ReplyKBps
		if j.first {
			cost += j.d.cfg.Costs.ReplyFixed
			j.first = false
		}
		j.node.CPU.Acquire(j.d.cpu(j.node.ID, cost), j.step)
	}
	return j
}

// Run simulates one configuration over a trace and reports the measured
// results. It never panics: configuration errors — including ones the
// model layers assert with panics — come back as errors, so one bad grid
// point cannot kill a whole sweep.
func Run(cfg Config, tr *trace.Trace) (res Result, err error) {
	defer func() {
		if r := recover(); r != nil {
			res, err = Result{}, fmt.Errorf("server: %s on %d nodes: %v", cfg.policyName(), cfg.Nodes, r)
		}
	}()
	if cfg.Persistent && cfg.ReqsPerConn == 0 {
		cfg.ReqsPerConn = 7
	}
	if cfg.Seed != 0 {
		if cfg.ArrivalSeed == 0 {
			cfg.ArrivalSeed = cfg.Seed
		}
		if cfg.PersistSeed == 0 {
			cfg.PersistSeed = cfg.Seed
		}
	}
	if err := cfg.Validate(); err != nil {
		return Result{}, err
	}
	if err := tr.Validate(); err != nil {
		return Result{}, err
	}
	if cfg.MaxRequests > 0 {
		tr = tr.Truncate(cfg.MaxRequests)
	}
	if tr.NumRequests() == 0 {
		return Result{}, fmt.Errorf("server: empty trace")
	}

	d := &driver{
		cfg:     cfg,
		eng:     sim.NewEngine(),
		tr:      tr,
		net:     nil,
		niIn:    cfg.Costs.NIInTime(),
		parse:   cfg.Costs.ParseTime(),
		fwd:     cfg.Costs.ForwardTime(),
		latency: stats.NewHistogram(),
	}
	if cfg.Persistent {
		d.connRNG = rand.New(rand.NewSource(cfg.PersistSeed + 1))
	}
	d.net = netsim.New(d.eng, cfg.Net)
	d.profiles = cfg.resolvedProfiles()
	d.nodes = make([]*cluster.Node, cfg.Nodes)
	for i := range d.nodes {
		if d.profiles == nil {
			d.nodes[i] = cluster.NewNode(d.eng, i, cfg.CacheBytes)
			continue
		}
		p := d.profiles[i]
		if p.CacheBytes == 0 {
			p.CacheBytes = cfg.CacheBytes
		}
		d.nodes[i] = cluster.NewProfiledNode(d.eng, i, p)
	}
	if d.profiles != nil {
		d.niOutKBps = make([]float64, cfg.Nodes)
		for i, p := range d.profiles {
			d.niOutKBps[i] = cfg.Costs.NIOutKBps
			if p.LinkKBps > 0 && p.LinkKBps < d.niOutKBps[i] {
				d.niOutKBps[i] = p.LinkKBps
			}
		}
	}
	if cfg.Net.FlattenGossip {
		// Flat broadcast path: gossip fan-outs charge receivers through
		// dense per-fleet banks, bit-identical to the unregistered network
		// (TestFlattenedGossipEquivalence).
		d.net.RegisterFleet(d.nodes)
	}

	popts := cfg.policyOptions()
	// Pre-size per-file policy state: a policy sees at most one set per
	// distinct file, and no more files than there are requests.
	popts.Files = tr.NumFiles()
	if r := tr.NumRequests(); r < popts.Files {
		popts.Files = r
	}
	if d.profiles != nil {
		// Weighted policies scale their thresholds and selections by
		// relative node capacity; unweighted ones ignore this.
		popts.Weights = capacityWeights(d.profiles, cfg.Costs, tr)
	}
	if cfg.System == CustomServer && cfg.CustomPolicy != nil {
		d.dist = cfg.CustomPolicy(d)
	} else {
		// The policy name is a full spec ("chash:vnodes=256,load=1.25"):
		// parsed parameters are applied on top of the Options assembled
		// above, so a plain name builds the family with those Options.
		spec, err := policy.ParseSpec(cfg.policyName())
		if err != nil {
			return Result{}, fmt.Errorf("server: %w", err)
		}
		dist, err := spec.Build(d, popts)
		if err != nil {
			return Result{}, fmt.Errorf("server: %w", err)
		}
		d.dist = dist
	}
	d.clientAware, _ = d.dist.(policy.ClientAware)
	d.dispatched, _ = d.dist.(policy.Dispatched)

	d.bindMetrics(cfg.Metrics)
	d.startSeries(cfg.Series)

	d.warmIdx = int(cfg.WarmFraction * float64(tr.NumRequests()))
	d.failIdx = -1
	if cfg.FailNode >= 0 {
		d.failIdx = int(cfg.FailAtFrac * float64(tr.NumRequests()))
	}
	if d.warmIdx == 0 {
		d.beginMeasurement()
	}

	if cfg.ArrivalRate > 0 || len(cfg.ArrivalSchedule) > 0 {
		// Open loop: Poisson arrivals at the offered rate (constant, or the
		// piecewise-constant schedule), independent of completions.
		d.openLoop = true
		d.arrivalRNG = rand.New(rand.NewSource(cfg.ArrivalSeed + 7))
		if len(cfg.ArrivalSchedule) > 0 {
			d.schedRemain = cfg.ArrivalSchedule[0].Duration
		}
		d.scheduleArrival()
	} else {
		// Closed loop at saturation: prime the connection window; every
		// completion injects the next request.
		window := cfg.WindowPerNode * cfg.Nodes
		for i := 0; i < window && d.next < tr.NumRequests(); i++ {
			d.inject()
		}
	}
	d.eng.Run()
	d.series.flush()

	return d.result(), nil
}

// scheduleArrival plants the next open-loop Poisson arrival.
func (d *driver) scheduleArrival() {
	if d.next >= d.tr.NumRequests() {
		return
	}
	if d.arrivalFn == nil {
		d.arrivalFn = func() {
			d.inject()
			d.scheduleArrival()
		}
	}
	d.eng.Schedule(d.nextArrivalGap(), d.arrivalFn)
}

// nextArrivalGap draws the time to the next open-loop arrival. With a
// constant rate this is one exponential; with a schedule it walks a
// unit-rate exponential across the piecewise-constant profile (the standard
// inversion for an inhomogeneous Poisson process), cycling the schedule so
// a one-period profile covers any run length. Zero-rate segments absorb no
// work and are skipped whole.
func (d *driver) nextArrivalGap() float64 {
	sched := d.cfg.ArrivalSchedule
	if len(sched) == 0 {
		return d.arrivalRNG.ExpFloat64() / d.cfg.ArrivalRate
	}
	e := d.arrivalRNG.ExpFloat64() // unit-rate exponential "work"
	gap := 0.0
	for {
		seg := sched[d.schedIdx]
		if seg.Rate > 0 {
			if need := e / seg.Rate; need <= d.schedRemain {
				d.schedRemain -= need
				return gap + need
			}
			e -= d.schedRemain * seg.Rate
		}
		gap += d.schedRemain
		d.schedIdx = (d.schedIdx + 1) % len(sched)
		d.schedRemain = sched[d.schedIdx].Duration
	}
}

// inject starts the next trace request (or, in persistent mode, the next
// connection worth of requests), if any remain.
func (d *driver) inject() {
	if d.next >= d.tr.NumRequests() {
		return
	}
	if d.next >= d.warmIdx && !d.measuring {
		d.beginMeasurement()
	}
	if d.failIdx >= 0 && d.next >= d.failIdx && d.cfg.FailNode >= 0 &&
		!d.nodes[d.cfg.FailNode].Failed() {
		d.nodes[d.cfg.FailNode].Fail()
	}
	if d.cfg.Persistent {
		d.injectConnection()
		return
	}
	idx := d.next
	d.next++
	d.start(idx)
}

func (d *driver) beginMeasurement() {
	d.measuring = true
	d.measStart = d.eng.Now()
	d.lastDone = d.eng.Now()
	for _, n := range d.nodes {
		n.ResetStats()
	}
	d.net.ResetStats()
	d.completed, d.aborted, d.assigned, d.forwarded = 0, 0, 0, 0
	d.gossip = 0
	d.connections, d.connReqs = 0, 0
	d.latency = stats.NewHistogram()
	d.buckets = nil
	if d.series != nil {
		d.series.begin()
	}
}

// start runs the connection lifecycle: router in, initial node NI and CPU,
// distribution decision, optional hand-off, service, reply out. The
// lifecycle's stages live on a pooled requestJob, so steady-state request
// processing allocates nothing in the driver.
func (d *driver) start(idx int) {
	d.inflight++
	f := d.tr.Requests[idx]
	if d.clientAware != nil {
		d.clientAware.SetNextClient(d.tr.Client(idx))
	}
	j := d.getRequestJob()
	j.f = f
	j.n0 = d.dist.Initial(f)
	j.skb = float64(d.tr.Size(f)) / 1024
	j.t0 = d.eng.Now()
	d.net.RouterIn(d.cfg.Costs.ReqKB, j.afterRouterIn)
}

// consultDispatcher charges the decision query of a Dispatched policy (a
// message round trip to the dispatcher plus its per-query CPU), then calls
// decide. Policies without a dispatcher decide immediately.
func (d *driver) consultDispatcher(n0 int, decide func()) {
	if d.dispatched == nil {
		decide()
		return
	}
	disp, cpuSec := d.dispatched.Dispatcher()
	if disp < 0 || disp == n0 || d.nodes[disp].Failed() {
		if disp >= 0 && disp != n0 {
			// Dispatcher down: the whole scheme stalls, like LARD's
			// front-end; abort the request.
			d.abortUnassigned()
			return
		}
		decide()
		return
	}
	node0 := d.nodes[n0]
	d.net.Send(node0, d.nodes[disp], d.cfg.Costs.ReqKB, func() {
		d.nodes[disp].CPU.Acquire(d.cpu(disp, cpuSec), func() {
			d.net.Send(d.nodes[disp], node0, d.cfg.Costs.ReqKB, func() {
				decide()
			})
		})
	})
}

// fetch brings a missed file into node n: from its local disk, or — with
// an explicit distributed file system — from the file's home disk across
// the cluster network.
func (d *driver) fetch(n int, f cache.FileID, skb float64, done func()) {
	node := d.nodes[n]
	if !d.cfg.DistributedFS {
		node.Disk.Acquire(d.disk(n, d.cfg.Costs.DiskTime(skb)), done)
		return
	}
	home := fileHome(f, len(d.nodes))
	if home == n || d.nodes[home].Failed() {
		node.Disk.Acquire(d.disk(n, d.cfg.Costs.DiskTime(skb)), done)
		return
	}
	remote := d.nodes[home]
	// Small read request to the home node, the disk read there, then the
	// data crosses the cluster network (size-dependent NI and wire time).
	d.net.Send(node, remote, d.cfg.Costs.ReqKB, func() {
		remote.Disk.Acquire(d.disk(home, d.cfg.Costs.DiskTime(skb)), func() {
			remote.NIOut.Acquire(d.niOut(home, skb), func() {
				wire := d.net.WireTime(remote, node, skb)
				d.eng.Schedule(wire, func() {
					node.NIIn.Acquire(d.niOut(n, skb), func() {
						node.CPU.Acquire(d.cfg.Net.MsgCPU, done)
					})
				})
			})
		})
	})
}

// cpu scales a CPU cost by node n's relative speed. The nil fast path and
// the exactness of division by 1.0 keep homogeneous runs bit-identical.
func (d *driver) cpu(n int, base float64) float64 {
	if d.profiles == nil {
		return base
	}
	return base / d.profiles[n].CPUSpeed
}

// disk scales a disk service time by node n's relative disk speed.
func (d *driver) disk(n int, base float64) float64 {
	if d.profiles == nil {
		return base
	}
	return base / d.profiles[n].DiskSpeed
}

// niOut is the NI time to move a reply of skb kilobytes at node n's
// effective line rate. With default profiles the expression is exactly
// Costs.NIOutTime, so homogeneous runs are bit-identical.
func (d *driver) niOut(n int, skb float64) float64 {
	if d.niOutKBps == nil {
		return d.cfg.Costs.NIOutTime(skb)
	}
	return d.cfg.Costs.NIOutFixed + skb/d.niOutKBps[n]
}

// fileHome spreads files over the cluster's disks (splitmix64 finalizer).
func fileHome(f cache.FileID, n int) int {
	x := uint64(f) + 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	x ^= x >> 31
	return int(x % uint64(n))
}

// transmit charges the CPU for reply transmit processing (mu_m) in
// CPUChunkKB quanta. Each chunk re-enters the FCFS CPU queue, so concurrent
// transmissions and request parsing interleave at chunk granularity — the
// behavior implied by the per-512-byte transmit cost of the LARD paper the
// parameters come from.
func (d *driver) transmit(node *cluster.Node, skb float64, done func()) {
	// Fixed per-reply cost up front, then the per-byte portion in chunks,
	// all carried by a pooled job instead of a per-reply closure.
	j := d.getTransmitJob()
	j.node = node
	j.remaining = skb
	j.chunk = d.cfg.CPUChunkKB
	if j.chunk <= 0 {
		j.chunk = 8
	}
	j.first = true
	j.done = done
	j.step()
}

func (d *driver) complete(n int, f cache.FileID, t0 float64) {
	d.nodes[n].RemoveConnection()
	d.dist.OnComplete(n, f)
	d.inflight--
	d.completed++
	d.m.completed.Inc()
	d.lastDone = d.eng.Now()
	if d.measuring {
		d.latency.Add(d.eng.Now() - t0)
		d.m.latency.Observe(d.eng.Now() - t0)
		d.recordTimeline()
	}
	if !d.openLoop {
		d.inject()
	}
}

// recordTimeline counts this completion in its timeline bucket.
func (d *driver) recordTimeline() {
	w := d.cfg.TimelineBucket
	if w <= 0 {
		return
	}
	idx := int((d.eng.Now() - d.measStart) / w)
	for len(d.buckets) <= idx {
		d.buckets = append(d.buckets, 0)
	}
	d.buckets[idx]++
}

// abortUnassigned drops a request that died before a service node was
// chosen (e.g. it arrived at a crashed node).
func (d *driver) abortUnassigned() {
	d.inflight--
	d.aborted++
	d.m.aborted.Inc()
	if !d.openLoop {
		d.inject()
	}
}

// abortAssigned drops a request whose service node crashed after
// assignment.
func (d *driver) abortAssigned(n int, f cache.FileID) {
	d.nodes[n].RemoveConnection()
	d.dist.OnComplete(n, f)
	d.inflight--
	d.aborted++
	d.m.aborted.Inc()
	if !d.openLoop {
		d.inject()
	}
}

func (d *driver) result() Result {
	elapsed := d.lastDone - d.measStart
	r := Result{
		System:          d.dist.Name(),
		Nodes:           d.cfg.Nodes,
		Completed:       d.completed,
		Aborted:         d.aborted,
		ControlMessages: d.net.Messages(),
		GossipMessages:  d.gossip,
		SimTime:         elapsed,
		Events:          d.eng.Fired(),
	}
	if elapsed > 0 {
		r.Throughput = float64(d.completed) / elapsed
	}
	if d.assigned > 0 {
		r.ForwardedFrac = float64(d.forwarded) / float64(d.assigned)
	}

	var hits, total uint64
	var cpu, disk, load float64
	r.PerNodeCPUUtil = make([]float64, len(d.nodes))
	for i, n := range d.nodes {
		s := n.Cache.Stats()
		hits += s.Hits
		total += s.Total
		r.PerNodeCPUUtil[i] = n.CPU.Utilization()
		cpu += r.PerNodeCPUUtil[i]
		disk += n.Disk.Utilization()
		load += n.MeanLoad()
	}
	if total > 0 {
		r.MissRate = 1 - float64(hits)/float64(total)
	}
	n := float64(len(d.nodes))
	r.MeanCPUUtil = cpu / n
	r.CPUIdle = 1 - r.MeanCPUUtil
	r.MeanDiskUtil = disk / n
	r.MeanLoad = load / n
	r.RouterUtil = d.net.Router.Utilization()

	var peakLoad float64
	for _, node := range d.nodes {
		if m := node.MeanLoad(); m > peakLoad {
			peakLoad = m
		}
	}
	if r.MeanLoad > 0 {
		r.LoadImbalance = peakLoad / r.MeanLoad
	}

	r.LatencyMean = d.latency.Mean()
	r.LatencyP50 = d.latency.Quantile(0.5)
	r.LatencyP99 = d.latency.Quantile(0.99)

	r.Connections = d.connections
	if d.connections > 0 {
		r.ReqsPerConn = float64(d.connReqs) / float64(d.connections)
	}

	if w := d.cfg.TimelineBucket; w > 0 {
		r.TimelineBucket = w
		r.Timeline = make([]float64, len(d.buckets))
		for i, c := range d.buckets {
			r.Timeline[i] = float64(c) / w
		}
	}

	if l2s, ok := d.dist.(*core.L2S); ok {
		s := l2s.Stats()
		r.L2S = &s
	}
	return r
}

// policy.Env implementation.

// N implements policy.Env.
func (d *driver) N() int { return d.cfg.Nodes }

// Now implements policy.Env.
func (d *driver) Now() float64 { return d.eng.Now() }

// Load implements policy.Env.
func (d *driver) Load(n int) int { return d.nodes[n].Load() }

// Alive implements policy.Env.
func (d *driver) Alive(n int) bool { return !d.nodes[n].Failed() }

// SendControl implements policy.Env: a 4-byte control message.
func (d *driver) SendControl(from, to int, onDeliver func()) {
	if d.nodes[from].Failed() || d.nodes[to].Failed() {
		return
	}
	d.gossip++
	d.net.Send(d.nodes[from], d.nodes[to], 0.004, onDeliver)
}

// BroadcastControl implements policy.Env.
func (d *driver) BroadcastControl(from int, onDeliver func()) {
	if d.nodes[from].Failed() {
		return
	}
	d.gossip += uint64(d.net.Broadcast(d.nodes[from], d.nodes, 0.004, onDeliver))
}

// BroadcastLoadReport implements policy.LoadReporter: the same broadcast as
// BroadcastControl, carrying (from, load) on a pooled job back to the sink
// at delivery time instead of in a per-broadcast closure.
func (d *driver) BroadcastLoadReport(from, load int, sink policy.LoadReportSink) {
	if d.nodes[from].Failed() {
		return
	}
	j := d.getLoadReportJob()
	j.from, j.load, j.sink = from, load, sink
	d.gossip += uint64(d.net.Broadcast(d.nodes[from], d.nodes, 0.004, j.deliver))
}

// PairRateKBps implements policy.PairRater for proximity-aware dispatch:
// the effective line rate between two nodes, or the uncapped configured
// link bandwidth for a node talking to itself (no wire is crossed).
func (d *driver) PairRateKBps(a, b int) float64 {
	if a == b {
		return d.net.Config().LinkKBps
	}
	return d.net.LinkRate(d.nodes[a], d.nodes[b])
}

var (
	_ policy.Env          = (*driver)(nil)
	_ policy.PairRater    = (*driver)(nil)
	_ policy.LoadReporter = (*driver)(nil)
)
