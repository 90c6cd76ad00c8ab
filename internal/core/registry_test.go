package core

import (
	"strings"
	"testing"

	"repro/internal/policy"
	"repro/internal/policy/policytest"
)

// The init-time registry hookup is how every CLI reaches this package;
// these tests pin each branch of that factory.

func TestRegistryConstructsL2S(t *testing.T) {
	d, err := policy.MustParseSpec("l2s").Build(policytest.New(4), policy.Options{})
	if err != nil {
		t.Fatal(err)
	}
	l, ok := d.(*L2S)
	if !ok {
		t.Fatalf("registry built a %T, want *core.L2S", d)
	}
	if l.Name() != "l2s" {
		t.Fatalf("Name() = %q", l.Name())
	}
	if l.FrontEnd() != -1 {
		t.Fatalf("FrontEnd() = %d, want -1 (no front end)", l.FrontEnd())
	}
	if l.opts != DefaultOptions() {
		t.Fatalf("zero policy.Options gave opts %+v, want defaults", l.opts)
	}
}

func TestRegistryPassesThroughOptions(t *testing.T) {
	want := Options{T: 30, LowT: 15, BroadcastDelta: 2}
	d, err := policy.MustParseSpec("l2s").Build(policytest.New(4), policy.Options{L2S: want})
	if err != nil {
		t.Fatal(err)
	}
	if got := d.(*L2S).opts; got != want {
		t.Fatalf("opts = %+v, want %+v", got, want)
	}
	// The zero Options value means "unset", not "all thresholds zero".
	d, err = policy.MustParseSpec("l2s").Build(policytest.New(4), policy.Options{L2S: Options{}})
	if err != nil {
		t.Fatal(err)
	}
	if got := d.(*L2S).opts; got != DefaultOptions() {
		t.Fatalf("zero Options gave %+v, want defaults", got)
	}
}

func TestRegistryRejectsBadOptions(t *testing.T) {
	_, err := policy.MustParseSpec("l2s").Build(policytest.New(4), policy.Options{L2S: "not options"})
	if err == nil || !strings.Contains(err.Error(), "want core.Options") {
		t.Fatalf("foreign option type: err = %v", err)
	}
	_, err = policy.MustParseSpec("l2s").Build(policytest.New(4), policy.Options{L2S: Options{T: -1, BroadcastDelta: 4}})
	if err == nil || !strings.Contains(err.Error(), "thresholds") {
		t.Fatalf("invalid thresholds: err = %v", err)
	}
}

func TestArgminSkipsDeadNodes(t *testing.T) {
	env := policytest.New(4)
	env.Loads = []int{1, 9, 9, 9}
	env.Dead[0] = true // the least-loaded node is down
	l := New(env, DefaultOptions())
	if got := l.argminAll(func(n int) float64 { return float64(env.Loads[n]) }); got == 0 || got < 0 {
		t.Fatalf("argminAll = %d, want a live node", got)
	}
}

func TestLeastLoadedMemberFallsBackWhenAllDead(t *testing.T) {
	env := policytest.New(4)
	l := New(env, DefaultOptions())
	set := []int32{2, 3}
	env.Dead[2], env.Dead[3] = true, true
	// With every member down there is no good answer; the contract is a
	// deterministic fallback to the first member rather than a crash.
	if got := l.leastLoadedMember(set, func(n int) float64 { return float64(env.Loads[n]) }); got != 2 {
		t.Fatalf("all-dead fallback = %d, want first member 2", got)
	}
	env.Dead[2] = false
	env.Loads = []int{0, 0, 7, 1}
	if got := l.leastLoadedMember(set, func(n int) float64 { return float64(env.Loads[n]) }); got != 2 {
		t.Fatalf("member pick = %d, want the only live member 2", got)
	}
}

func TestServerSetUnknownFile(t *testing.T) {
	l := New(policytest.New(2), DefaultOptions())
	if set := l.ServerSet(42); set != nil {
		t.Fatalf("ServerSet of a never-requested file = %v, want nil", set)
	}
	l.Service(0, 42)
	set := l.ServerSet(42)
	if len(set) == 0 {
		t.Fatal("ServerSet empty after a request")
	}
	set[0] = -99 // the copy must not alias internal state
	if l.ServerSet(42)[0] == -99 {
		t.Fatal("ServerSet returned an aliased slice")
	}
}
