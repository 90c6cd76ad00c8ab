// Package server is the trace-driven cluster server simulator of Section 5:
// it drives a request-distribution policy (traditional, LARD, or L2S) over
// a WWW trace on a simulated cluster, at saturation, and measures
// throughput, cache miss rate, CPU idle time, and the fraction of forwarded
// requests — the four quantities the paper's evaluation reports.
//
// Saturation methodology: the paper disregards trace timing and schedules a
// new request "as soon as the router and network interface buffers would
// accept them". The simulator reproduces this with a connection window: a
// fixed number of outstanding connections per node is kept in flight, and
// every completion immediately injects the next trace request.
package server

import (
	"fmt"
	"math"

	"repro/internal/core"
	"repro/internal/netsim"
	"repro/internal/obs"
	"repro/internal/policy"
	"repro/internal/queuemodel"
)

// System selects the server under test.
type System int

// The three systems of the paper's evaluation.
const (
	Traditional System = iota
	LARDServer
	LARDDispatcher // Section 6's scalable LARD variant (Aron et al. 2000)
	L2SServer
	CustomServer // uses Config.CustomPolicy
)

// String names the system.
func (s System) String() string {
	switch s {
	case Traditional:
		return "traditional"
	case LARDServer:
		return "lard"
	case LARDDispatcher:
		return "lard-dispatch"
	case L2SServer:
		return "l2s"
	case CustomServer:
		return "custom"
	}
	return fmt.Sprintf("system(%d)", int(s))
}

// Config describes one simulation run.
type Config struct {
	System     System
	Nodes      int
	CacheBytes int64 // per-node main memory (Section 5.1: 32 MB)

	// Costs supplies the Table 1 service-time constants. AvgFileKB is
	// ignored: the simulator uses each request's actual size.
	Costs queuemodel.Params
	// Net supplies the communication constants (M-VIA over Gigabit).
	Net netsim.Config

	L2S  core.Options
	LARD policy.LARDOptions

	// FECostSec is the front-end CPU time per request for LARD's accept,
	// parse, and hand-off, calibrated to the ~5000 requests/second
	// front-end ceiling both the paper and the LARD paper report.
	FECostSec float64

	// DispatchQuerySec is the dispatcher CPU time per decision query for
	// the LARDDispatcher system (its saturation point; Section 6 notes it
	// is "much less serious" than the original front-end's).
	DispatchQuerySec float64

	// WindowPerNode is the per-node outstanding-connection budget that
	// implements the saturation methodology.
	WindowPerNode int

	// ArrivalRate, when positive, switches from the paper's saturation
	// methodology to an open-loop Poisson arrival process at this many
	// requests per second. Latency then measures true client-perceived
	// response time at a given offered load (and can be compared against
	// the analytic model's M/M/1 Latency). WindowPerNode is ignored.
	ArrivalRate float64
	// ArrivalSeed seeds the Poisson process.
	ArrivalSeed int64

	// ArrivalSchedule, when non-empty, switches to an open-loop
	// inhomogeneous Poisson process with this piecewise-constant rate
	// profile (in requests per second, segment durations in seconds). The
	// schedule cycles when the trace outlasts it, so one diurnal period
	// describes an arbitrarily long run. Mutually exclusive with
	// ArrivalRate; DiurnalSchedule builds the sinusoidal profile of the
	// trace package's diurnal mode.
	ArrivalSchedule []RateSegment

	// WarmFraction is the fraction of the trace used to warm caches before
	// measurement begins, mirroring the paper's warm-up pass.
	WarmFraction float64

	// CPUChunkKB is the transmit-processing quantum: reply CPU work is
	// charged in chunks of this many kilobytes so that transmissions
	// interleave with request parsing and forwarding, as in the LARD
	// paper's cost model (40 us per 512 bytes). Zero selects 8 KB; a large
	// value degenerates to whole-reply FCFS occupancy.
	CPUChunkKB float64

	// MaxRequests truncates the trace when positive.
	MaxRequests int

	// FailNode, when >= 0, crashes that node after FailAtFrac of the trace
	// has been injected — used to compare availability (L2S has no single
	// point of failure; LARD's front-end is one).
	FailNode   int
	FailAtFrac float64

	// Persistent enables HTTP/1.1-style persistent connections: each
	// connection carries several requests (geometrically distributed with
	// mean ReqsPerConn) and stays bound to the node that accepted it.
	// Requests whose content lives elsewhere are served by back-end
	// forwarding in the style of Aron et al.: the caching node reads the
	// file and ships it to the connection's node, which transmits it to
	// the client. Section 4 of the paper defers persistent connections to
	// exactly this mechanism.
	Persistent  bool
	ReqsPerConn float64 // mean requests per connection (default 7)
	PersistSeed int64   // RNG seed for connection lengths

	// Profiles, when non-nil, gives each node a hardware profile — relative
	// CPU and disk speeds, NI line rate, and cache size (see NodeProfile).
	// The paper assumes "all cluster nodes are equally powerful"; profiles
	// model mixed-generation and multi-tier clusters. A node's zero fields
	// fall back to the baseline (speed 1, Net.LinkKBps, CacheBytes).
	Profiles []NodeProfile

	// DistributedFS models the cluster's distributed file system
	// explicitly: every file has a home disk (hashed over the nodes), and
	// a cache miss at another node fetches the file from the home node's
	// disk across the cluster network. When false (the default, matching
	// the paper's evaluation), misses read a local disk — the behavior of
	// a DFS with locally replicated storage.
	DistributedFS bool

	// TimelineBucket, when positive, records a throughput time series with
	// buckets of this many simulated seconds — useful for watching the
	// failure experiments (Result.Timeline).
	TimelineBucket float64

	// CustomPolicy builds the distributor when System == CustomServer.
	CustomPolicy func(env policy.Env) policy.Distributor

	// Policy, when non-empty, selects a registered distribution policy
	// instead of the System's default; it takes precedence over System for
	// distributor construction and is the CLI-facing route into the policy
	// registry. It accepts a full policy spec — a name plus per-family
	// parameters, e.g. "chash:vnodes=256,load=1.25" (see policy.ParseSpec);
	// spec parameters are applied on top of the tunables assembled from
	// this Config. CustomPolicy, when also set, wins over Policy.
	Policy string

	// Seed is the run's base RNG seed. It fills ArrivalSeed and
	// PersistSeed when those are zero and seeds seedable policies (e.g.
	// random); sweep runners derive it per job so grid points are
	// reproducible independent of execution order.
	Seed int64

	// DNSTTL is the cached-dns policy's requests per cached translation
	// (zero selects its default of 50).
	DNSTTL int

	// Series, when non-nil, records per-resource utilization, cache hit
	// rate, queue depth, load, and forwarding-fraction time series at the
	// recorder's simulated-time interval, over the measurement phase.
	// Observation never perturbs the simulation: a run with Series attached
	// is bit-identical to one without. The recorder is single-threaded —
	// do not share one Series between parallel sweep jobs.
	Series *obs.Series

	// Metrics, when non-nil, mirrors run counters (completions, aborts,
	// forwards, cache hits/misses/evictions, network messages) and a
	// request-latency histogram onto the registry. Like Series, it never
	// perturbs the simulation, and must not be shared between parallel
	// jobs.
	Metrics *obs.Registry
}

// DefaultConfig returns the paper's simulation setup for the given system
// and cluster size; it is NewConfig with no options.
func DefaultConfig(system System, nodes int) Config {
	return NewConfig(system, nodes)
}

// Validate reports configuration errors.
func (c Config) Validate() error {
	switch {
	case c.Nodes < 1:
		return fmt.Errorf("server: need at least one node, got %d", c.Nodes)
	case c.CacheBytes < 0:
		return fmt.Errorf("server: negative cache size %d", c.CacheBytes)
	case c.WindowPerNode < 1:
		return fmt.Errorf("server: window per node must be >= 1, got %d", c.WindowPerNode)
	case c.WarmFraction < 0 || c.WarmFraction > 0.95:
		return fmt.Errorf("server: warm fraction %v outside [0, 0.95]", c.WarmFraction)
	case c.System == LARDServer && c.FECostSec <= 0:
		return fmt.Errorf("server: LARD needs a positive front-end cost")
	case c.System == CustomServer && c.CustomPolicy == nil && c.Policy == "":
		return fmt.Errorf("server: CustomServer needs a CustomPolicy or a Policy name")
	case c.Net.RouterKBps <= 0 || c.Net.LinkKBps <= 0:
		return fmt.Errorf("server: network rates must be positive: %+v", c.Net)
	case c.FailNode >= c.Nodes:
		return fmt.Errorf("server: fail node %d outside cluster of %d", c.FailNode, c.Nodes)
	case c.Persistent && c.ReqsPerConn < 1:
		return fmt.Errorf("server: persistent connections need ReqsPerConn >= 1, got %v", c.ReqsPerConn)
	case c.ArrivalRate < 0:
		return fmt.Errorf("server: negative arrival rate %v", c.ArrivalRate)
	case c.ArrivalRate > 0 && len(c.ArrivalSchedule) > 0:
		return fmt.Errorf("server: ArrivalRate and ArrivalSchedule are mutually exclusive")
	}
	if len(c.ArrivalSchedule) > 0 {
		anyPositive := false
		for i, seg := range c.ArrivalSchedule {
			if !(seg.Duration > 0) || math.IsInf(seg.Duration, 0) {
				return fmt.Errorf("server: arrival segment %d duration %v must be positive and finite", i, seg.Duration)
			}
			if seg.Rate < 0 || math.IsInf(seg.Rate, 0) || math.IsNaN(seg.Rate) {
				return fmt.Errorf("server: arrival segment %d rate %v must be finite and >= 0", i, seg.Rate)
			}
			anyPositive = anyPositive || seg.Rate > 0
		}
		if !anyPositive {
			return fmt.Errorf("server: arrival schedule has no positive-rate segment")
		}
	}
	if c.Profiles != nil {
		if len(c.Profiles) != c.Nodes {
			return fmt.Errorf("server: %d profiles for %d nodes", len(c.Profiles), c.Nodes)
		}
		for i, p := range c.Profiles {
			if err := p.Validate(); err != nil {
				return fmt.Errorf("server: node %d: %w", i, err)
			}
		}
	}
	// Bad policy tunables used to surface as constructor panics mid-run;
	// validating them here lets one bad grid point fail with an error
	// instead of killing a whole parallel sweep. Zero values are legal:
	// construction replaces them with the published defaults.
	if c.System == L2SServer && c.L2S != (core.Options{}) {
		if err := c.L2S.Validate(); err != nil {
			return err
		}
	}
	if (c.System == LARDServer || c.System == LARDDispatcher) && c.LARD != (policy.LARDOptions{}) {
		if err := c.LARD.Validate(); err != nil {
			return err
		}
	}
	// Policy is a full spec string; parse it eagerly so an unknown name or
	// out-of-range parameter fails the grid point, not the whole sweep.
	if c.Policy != "" {
		if _, err := policy.ParseSpec(c.Policy); err != nil {
			return fmt.Errorf("server: %w", err)
		}
	}
	return nil
}

// policyName returns the registry name of the distributor this Config
// selects: the explicit Policy override when set, the System's name
// otherwise.
func (c Config) policyName() string {
	if c.Policy != "" {
		return c.Policy
	}
	return c.System.String()
}

// policyOptions assembles the registry options from the Config's fields.
func (c Config) policyOptions() policy.Options {
	return policy.Options{
		LARD:             c.LARD,
		DispatchQuerySec: c.DispatchQuerySec,
		Seed:             c.Seed,
		DNSTTL:           c.DNSTTL,
		L2S:              c.L2S,
	}
}

// Result reports what one run measured (all statistics cover only the
// post-warm-up measurement interval).
type Result struct {
	System string
	Nodes  int

	Throughput float64 // completed requests per second
	Completed  uint64
	Aborted    uint64 // requests lost to crashed nodes

	MissRate      float64 // aggregate cache miss rate at the service nodes
	ForwardedFrac float64 // fraction of requests serviced away from their initial node

	MeanCPUUtil    float64
	CPUIdle        float64 // 1 - MeanCPUUtil, the paper's idle-time metric
	PerNodeCPUUtil []float64
	RouterUtil     float64
	MeanDiskUtil   float64
	MeanLoad       float64 // time-averaged open connections per node

	// LoadImbalance is the peak-to-mean ratio of per-node time-averaged
	// loads: 1.0 is perfect balance.
	LoadImbalance float64

	// Response-time statistics over the measurement interval, in seconds.
	LatencyMean float64
	LatencyP50  float64
	LatencyP99  float64

	// Persistent-connection statistics (Persistent mode only).
	Connections uint64  // connections completed
	ReqsPerConn float64 // measured requests per connection

	ControlMessages uint64  // intra-cluster messages (hand-offs + gossip)
	SimTime         float64 // simulated seconds measured
	Events          uint64  // events the engine fired

	// GossipMessages counts only the policy's own control traffic (load
	// reports, server-set broadcasts) — the messages a zero-coordination
	// policy like chash avoids. Excluded from JSON so the pre-gossip
	// equivalence goldens stay byte-identical; BENCH_scale.json carries it
	// via perf.ScaleResult.
	GossipMessages uint64 `json:"-"`

	// Timeline holds completions per second for consecutive buckets of
	// TimelineBucket simulated seconds (empty unless configured).
	Timeline       []float64
	TimelineBucket float64

	L2S *core.Stats // control-plane stats when System == L2SServer
}
