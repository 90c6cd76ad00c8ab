// Functional-option construction for Config: sweep code describes a grid
// point as NewConfig(system, nodes, opts...) instead of mutating struct
// fields in place, which keeps job construction side-effect free and makes
// grids declarative. The Config struct stays exported and settable for
// compatibility; an Option is just func(*Config), so one-off tweaks can be
// written inline.
package server

import (
	"repro/internal/core"
	"repro/internal/netsim"
	"repro/internal/obs"
	"repro/internal/policy"
	"repro/internal/queuemodel"
)

// Option mutates a Config under construction in NewConfig.
type Option func(*Config)

// NewConfig returns the paper's simulation setup for the given system and
// cluster size — 32 MB caches, Table 1 costs, M-VIA messaging, L2S with
// T=20/t=10/delta=4, LARD with the published parameters, and a 5000
// request/s front-end — with the given options applied on top.
func NewConfig(system System, nodes int, opts ...Option) Config {
	cfg := Config{
		System:           system,
		Nodes:            nodes,
		CacheBytes:       32 << 20,
		Costs:            queuemodel.DefaultParams(),
		Net:              netsim.DefaultConfig(),
		L2S:              core.DefaultOptions(),
		LARD:             policy.DefaultLARDOptions(),
		FECostSec:        0.0002,
		DispatchQuerySec: 0.0001,
		WindowPerNode:    12,
		WarmFraction:     0.4,
		CPUChunkKB:       8,
		FailNode:         -1,
	}
	for _, opt := range opts {
		opt(&cfg)
	}
	return cfg
}

// WithSeed sets the run's base RNG seed: it seeds the open-loop arrival
// process, persistent-connection lengths, and any seedable policy, except
// where a more specific seed field was set explicitly.
func WithSeed(seed int64) Option {
	return func(c *Config) { c.Seed = seed }
}

// WithCacheBytes sets the per-node main memory.
func WithCacheBytes(bytes int64) Option {
	return func(c *Config) { c.CacheBytes = bytes }
}

// WithFailure crashes the given node after atFrac of the trace has been
// injected.
func WithFailure(node int, atFrac float64) Option {
	return func(c *Config) { c.FailNode, c.FailAtFrac = node, atFrac }
}

// WithWindow sets the per-node outstanding-connection budget.
func WithWindow(perNode int) Option {
	return func(c *Config) { c.WindowPerNode = perNode }
}

// WithWarmFraction sets the cache warm-up fraction of the trace.
func WithWarmFraction(f float64) Option {
	return func(c *Config) { c.WarmFraction = f }
}

// WithMaxRequests truncates the trace.
func WithMaxRequests(n int) Option {
	return func(c *Config) { c.MaxRequests = n }
}

// WithArrivalRate switches to an open-loop Poisson arrival process at the
// given requests per second.
func WithArrivalRate(rate float64) Option {
	return func(c *Config) { c.ArrivalRate = rate }
}

// WithArrivalSchedule switches to an open-loop inhomogeneous Poisson
// process with the given piecewise-constant rate profile (cycled over the
// run); see DiurnalSchedule for the sinusoidal profile of diurnal mode.
func WithArrivalSchedule(sched []RateSegment) Option {
	return func(c *Config) { c.ArrivalSchedule = sched }
}

// WithPersistent enables HTTP/1.1-style persistent connections with the
// given mean requests per connection.
func WithPersistent(reqsPerConn float64) Option {
	return func(c *Config) { c.Persistent, c.ReqsPerConn = true, reqsPerConn }
}

// WithDistributedFS models the distributed file system explicitly: cache
// misses fetch from the file's home disk across the cluster network.
func WithDistributedFS() Option {
	return func(c *Config) { c.DistributedFS = true }
}

// WithTimelineBucket records a throughput time series with buckets of the
// given simulated width.
func WithTimelineBucket(seconds float64) Option {
	return func(c *Config) { c.TimelineBucket = seconds }
}

// WithL2S replaces the L2S tunables.
func WithL2S(opts core.Options) Option {
	return func(c *Config) { c.L2S = opts }
}

// WithLARD replaces the LARD execution parameters.
func WithLARD(opts policy.LARDOptions) Option {
	return func(c *Config) { c.LARD = opts }
}

// WithPolicy runs a registered distribution policy by name (see
// policy.Names): the system becomes CustomServer and the distributor is
// built by policy.New at run time, configured from the Config's LARD, L2S,
// Seed, DNSTTL, and DispatchQuerySec fields. Unknown names surface from
// Run as an error listing the valid ones.
func WithPolicy(name string) Option {
	return func(c *Config) { c.System, c.Policy = CustomServer, name }
}

// WithCustomPolicy runs a caller-supplied distributor.
func WithCustomPolicy(mk func(env policy.Env) policy.Distributor) Option {
	return func(c *Config) { c.System, c.CustomPolicy = CustomServer, mk }
}

// WithDNSTTL sets the cached-dns policy's requests per cached translation.
func WithDNSTTL(requests int) Option {
	return func(c *Config) { c.DNSTTL = requests }
}

// WithSeries attaches a time-series recorder: per-resource utilization,
// cache hit rates, queue depths, load, and forwarding fraction are sampled
// every rec.Interval() simulated seconds during the measurement phase.
// Observation never perturbs the simulation. A Series must not be shared
// between parallel sweep jobs.
func WithSeries(rec *obs.Series) Option {
	return func(c *Config) { c.Series = rec }
}

// WithMetrics mirrors run counters and a request-latency histogram onto the
// registry (see Config.Metrics).
func WithMetrics(reg *obs.Registry) Option {
	return func(c *Config) { c.Metrics = reg }
}
