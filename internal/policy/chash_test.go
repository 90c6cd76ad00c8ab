package policy

import (
	"reflect"
	"runtime"
	"testing"

	"repro/internal/policy/policytest"
)

func TestChashPresets(t *testing.T) {
	env := policytest.New(8)
	for name, want := range map[string]ChashOptions{
		"chash":         {VNodes: 128, D: 1},
		"chash-bounded": {VNodes: 128, BoundC: 1.25, D: 1},
		"chash-d":       {VNodes: 128, D: 2},
	} {
		d, err := MustParseSpec(name).Build(env, Options{})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		p := d.(*CHash)
		if p.opts != want {
			t.Errorf("%s defaults %+v, want %+v", name, p.opts, want)
		}
		if p.Name() != name {
			t.Errorf("%s reports Name %q", name, p.Name())
		}
	}
}

func TestChashOptionsValidate(t *testing.T) {
	for _, bad := range []ChashOptions{
		{VNodes: 0, D: 1},
		{VNodes: 5000, D: 1},
		{VNodes: 128, D: 0},
		{VNodes: 128, D: 17},
		{VNodes: 128, D: 1, BoundC: 1},
		{VNodes: 128, D: 1, BoundC: 9},
	} {
		if bad.Validate() == nil {
			t.Errorf("%+v must fail validation", bad)
		}
	}
	good := ChashOptions{VNodes: 128, D: 2, BoundC: 1.25}
	if err := good.Validate(); err != nil {
		t.Errorf("%+v: %v", good, err)
	}
}

// TestRingDeterministic pins the weighted-vnode ring as a pure function of
// cluster shape: byte-identical across repeated builds and across
// GOMAXPROCS settings (no map iteration, RNG, or goroutine order anywhere
// in construction).
func TestRingDeterministic(t *testing.T) {
	weights := []float64{2, 1, 0.5, 0.5, 1, 1, 1, 1}
	ref := buildRing(8, 128, weights)
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, procs := range []int{1, 4, runtime.NumCPU()} {
		runtime.GOMAXPROCS(procs)
		if got := buildRing(8, 128, weights); !reflect.DeepEqual(got, ref) {
			t.Fatalf("ring differs at GOMAXPROCS=%d", procs)
		}
	}
	if got := buildRing(8, 128, append([]float64(nil), weights...)); !reflect.DeepEqual(got, ref) {
		t.Fatal("ring differs across identical rebuilds")
	}
}

func TestRingWeightedVnodeCounts(t *testing.T) {
	weights := []float64{2, 1, 0.25, 0.001}
	ring := buildRing(4, 128, weights)
	counts := make([]int, 4)
	for _, pt := range ring {
		counts[pt.node]++
	}
	want := []int{256, 128, 32, 1} // max(1, round(128*w))
	if !reflect.DeepEqual(counts, want) {
		t.Fatalf("vnode counts %v, want %v", counts, want)
	}
}

func TestChashOwnerStableAndLocalityPreserving(t *testing.T) {
	env := policytest.New(8)
	d, err := MustParseSpec("chash").Build(env, Options{})
	if err != nil {
		t.Fatal(err)
	}
	// The owner of a file never moves while membership is stable,
	// regardless of load or which node the connection arrived at.
	for f := FileID(0); f < 200; f++ {
		first := d.Service(0, f)
		env.Loads[first] = 1000
		if again := d.Service(3, f); again != first {
			t.Fatalf("file %d moved %d -> %d with stable membership", f, first, again)
		}
		env.Loads[first] = 0
	}
}

func TestChashSkipsDeadNodes(t *testing.T) {
	env := policytest.New(8)
	d, _ := MustParseSpec("chash").Build(env, Options{})
	owners := make([]int, 100)
	for f := range owners {
		owners[f] = d.Service(0, FileID(f))
	}
	dead := owners[0]
	env.Dead[dead] = true
	moved := 0
	for f := range owners {
		got := d.Service(0, FileID(f))
		if got == dead {
			t.Fatalf("file %d assigned to dead node %d", f, dead)
		}
		if got != owners[f] {
			moved++
		}
	}
	// Consistent hashing's point: only the dead node's files move.
	for f := range owners {
		if owners[f] != dead && d.Service(0, FileID(f)) != owners[f] {
			t.Fatalf("file %d owned by live node %d moved anyway", f, owners[f])
		}
	}
	if moved == 0 {
		t.Fatal("no files were owned by the dead node; test vacuous")
	}
}

func TestChashBoundedSpillsOverloadedOwner(t *testing.T) {
	env := policytest.New(8)
	d, err := MustParseSpec("chash-bounded").Build(env, Options{})
	if err != nil {
		t.Fatal(err)
	}
	p := d.(*CHash)
	const f = FileID(42)
	owner := d.Service(0, f)
	// Mean load 4 => limit 1.25 * (32+1)/8 ~ 5.16. Overload the owner.
	for i := range env.Loads {
		env.Loads[i] = 4
	}
	p.inflight = 32
	env.Loads[owner] = 40
	spilled := d.Service(0, f)
	if spilled == owner {
		t.Fatalf("owner %d over the bound must spill", owner)
	}
	if float64(env.Loads[spilled]) >= 1.25*33/8 {
		t.Fatalf("spilled to node %d which is itself over the limit", spilled)
	}
	// Under the limit the owner keeps its file.
	env.Loads[owner] = 4
	if got := d.Service(0, f); got != owner {
		t.Fatalf("owner under the bound must keep the file, got %d", got)
	}
}

func TestChashBoundedAllOverloadedPicksLeastLoaded(t *testing.T) {
	env := policytest.New(4)
	d, _ := MustParseSpec("chash-bounded").Build(env, Options{})
	p := d.(*CHash)
	p.inflight = 400
	for i := range env.Loads {
		env.Loads[i] = 200 + 10*i // everyone far over limit 1.25*401/4
	}
	if got := d.Service(0, FileID(7)); got != 0 {
		t.Fatalf("infeasible bound must fall back to least-loaded node 0, got %d", got)
	}
}

func TestChashDPicksLeastLoadedCandidate(t *testing.T) {
	env := policytest.New(8)
	d, err := MustParseSpec("chash-d").Build(env, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for f := FileID(0); f < 100; f++ {
		// Make candidate loads distinct: whatever the d candidates are, the
		// chosen one must have load <= the plain-chash owner's.
		for i := range env.Loads {
			env.Loads[i] = i * 10
		}
		got := d.Service(0, f)
		plain, _ := MustParseSpec("chash").Build(env, Options{})
		owner := plain.Service(0, f)
		if env.Loads[got] > env.Loads[owner] {
			t.Fatalf("file %d: d-choices picked load %d over owner load %d",
				f, env.Loads[got], env.Loads[owner])
		}
	}
}

func TestChashDOneDegradesToPlain(t *testing.T) {
	env := policytest.New(8)
	plain, _ := MustParseSpec("chash").Build(env, Options{})
	one, err := New(MustParseSpec("chash:d=1"), env)
	if err != nil {
		t.Fatal(err)
	}
	for f := FileID(0); f < 500; f++ {
		if plain.Service(0, f) != one.Service(0, f) {
			t.Fatalf("file %d diverged", f)
		}
	}
	// The chash-d preset refills d<=1 back to its signature default.
	d2, err := New(MustParseSpec("chash-d:d=1"), env)
	if err != nil {
		t.Fatal(err)
	}
	if got := d2.(*CHash).opts.D; got != 2 {
		t.Fatalf("chash-d with d=1 kept D=%d, preset should restore 2", got)
	}
}

// rateEnv wraps the fake Env with per-pair line rates for proximity tests.
type rateEnv struct {
	*policytest.Env
	rate func(a, b int) float64
}

func (e *rateEnv) PairRateKBps(a, b int) float64 { return e.rate(a, b) }

func TestChashProximityBiasesTowardFastPairs(t *testing.T) {
	base := policytest.New(8)
	env := &rateEnv{Env: base, rate: func(a, b int) float64 { return 128000 }}
	d, err := New(MustParseSpec("chash:d=4,prox=true"), env)
	if err != nil {
		t.Fatal(err)
	}
	p := d.(*CHash)
	if p.rates == nil {
		t.Fatal("proximity policy did not pick up the PairRater environment")
	}
	moved := 0
	for f := FileID(0); f < 50; f++ {
		env.rate = func(a, b int) float64 { return 128000 }
		fast := d.Service(0, f) // uniform rates: plain least-loaded choice
		// Make every pair involving that winner crawl: unless all d
		// candidates hash to the same node, the pick must move.
		env.rate = func(a, b int) float64 {
			if b == fast {
				return 1
			}
			return 128000
		}
		if d.Service(0, f) != fast {
			moved++
		}
	}
	if moved == 0 {
		t.Fatal("proximity bias never moved a pick off a 128000x slower link")
	}
}

func TestChashProximityWithoutRaterFallsBack(t *testing.T) {
	d, err := New(MustParseSpec("chash:d=2,prox=true"), policytest.New(8))
	if err != nil {
		t.Fatal(err)
	}
	if d.(*CHash).rates != nil {
		t.Fatal("plain Env cannot rate pairs; rates must stay nil")
	}
	if got := d.Service(0, FileID(3)); got < 0 || got > 7 {
		t.Fatalf("fallback service out of range: %d", got)
	}
}

func TestChashInflightTracking(t *testing.T) {
	env := policytest.New(4)
	d, _ := MustParseSpec("chash-bounded").Build(env, Options{})
	p := d.(*CHash)
	d.OnAssign(1)
	d.OnAssign(2)
	if p.inflight != 2 {
		t.Fatalf("inflight %d after two assigns", p.inflight)
	}
	d.OnComplete(1, FileID(0))
	if p.inflight != 1 {
		t.Fatalf("inflight %d after a completion", p.inflight)
	}
}

func TestChashRoundRobinArrival(t *testing.T) {
	env := policytest.New(4)
	d, _ := MustParseSpec("chash").Build(env, Options{})
	if d.FrontEnd() != -1 {
		t.Fatal("chash has no dedicated front-end")
	}
	seen := map[int]bool{}
	for i := 0; i < 4; i++ {
		seen[d.Initial(FileID(i))] = true
	}
	if len(seen) != 4 {
		t.Fatalf("round-robin arrival hit %d of 4 nodes", len(seen))
	}
}
