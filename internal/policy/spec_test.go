package policy

import (
	"reflect"
	"strings"
	"testing"
)

func TestParseSpecPlainNamesMatchRegistry(t *testing.T) {
	for _, name := range Names() {
		spec, err := ParseSpec(name)
		if err != nil {
			t.Errorf("%s: %v", name, err)
			continue
		}
		if spec.Name != name || spec.String() != name {
			t.Errorf("%s parsed to %q (canonical %q)", name, spec.Name, spec)
		}
	}
}

func TestParseSpecResolvesAliases(t *testing.T) {
	for alias, want := range map[string]string{"trad": "traditional", "chash-d2": "chash-d"} {
		spec, err := ParseSpec(alias)
		if err != nil {
			t.Fatalf("%s: %v", alias, err)
		}
		if spec.Name != want {
			t.Errorf("alias %s resolved to %q, want %q", alias, spec.Name, want)
		}
	}
}

func TestParseSpecExample(t *testing.T) {
	spec, err := ParseSpec("chash:vnodes=64,load=1.25,d=2,prox=true")
	if err != nil {
		t.Fatal(err)
	}
	got := spec.Options(Options{}).Chash
	want := ChashOptions{VNodes: 64, BoundC: 1.25, D: 2, Proximity: true}
	if got != want {
		t.Fatalf("spec applied %+v, want %+v", got, want)
	}
	d, err := New(spec, newFakeEnv(4))
	if err != nil {
		t.Fatal(err)
	}
	if d.Name() != "chash" {
		t.Errorf("built %q", d.Name())
	}
}

func TestSpecOptionsKeepFamilyDefaults(t *testing.T) {
	spec := MustParseSpec("lard:thigh=80")
	l := spec.Options(Options{}).LARD
	if l.THigh != 80 {
		t.Errorf("thigh not applied: %+v", l)
	}
	if l.TLow != 25 || l.UpdateBatch != 4 || !l.Replication {
		t.Errorf("setting one key must keep published defaults for the rest: %+v", l)
	}
}

func TestSpecStringRoundTrips(t *testing.T) {
	for _, s := range []string{
		"chash:vnodes=64,load=1.25,d=2,prox=true",
		"lard:tlow=10,thigh=80",
		"lard-dispatch:query=0.0002",
		"random:seed=99",
		"cached-dns:ttl=10",
	} {
		spec := MustParseSpec(s)
		if spec.String() != s {
			t.Errorf("canonical form of %q is %q", s, spec)
		}
		again := MustParseSpec(spec.String())
		if again.String() != spec.String() ||
			!reflect.DeepEqual(again.Options(Options{}), spec.Options(Options{})) {
			t.Errorf("%q did not round-trip", s)
		}
	}
}

func TestParseSpecErrors(t *testing.T) {
	for _, bad := range []string{
		"",                     // empty name
		"   ",                  // blank name
		"nope",                 // unknown policy
		"nope:vnodes=1",        // unknown policy with params
		"chash:",               // empty parameter list
		"chash:vnodes",         // not key=value
		"chash:=1",             // empty key
		"chash:fanout=3",       // unknown key
		"traditional:vnodes=1", // family with no params
		"chash:vnodes=0",       // below range
		"chash:vnodes=5000",    // above range
		"chash:vnodes=1e2",     // not an integer
		"chash:vnodes=12abc",   // trailing garbage
		"chash:load=1",         // exclusive lower bound
		"chash:load=9",         // above range
		"chash:load=nan",       // not finite
		"chash:load=+Inf",      // not finite
		"chash:d=0",            // below range
		"chash:d=17",           // above range
		"chash:prox=maybe",     // not a bool
		"chash:d=2,d=3",        // repeated key
		"lard:tlow=0",          // below range
		"chash:vnodes=" + strings.Repeat("1", 600), // over length cap
	} {
		if _, err := ParseSpec(bad); err == nil {
			t.Errorf("ParseSpec(%q) must fail", bad)
		}
	}
}

func TestParseSpecUnknownKeyListsAccepted(t *testing.T) {
	_, err := ParseSpec("chash:fanout=3")
	if err == nil {
		t.Fatal("unknown key must error")
	}
	for _, key := range []string{"vnodes", "load", "d", "prox"} {
		if !strings.Contains(err.Error(), key) {
			t.Errorf("error should list accepted key %q: %v", key, err)
		}
	}
}

func TestParseSpecUnknownNameListsAliases(t *testing.T) {
	_, err := ParseSpec("no-such-policy")
	if err == nil {
		t.Fatal("unknown policy must error")
	}
	msg := err.Error()
	for _, want := range []string{"trad (= traditional)", "chash-d2 (= chash-d)"} {
		if !strings.Contains(msg, want) {
			t.Errorf("unknown-policy error should advertise %q: %v", want, err)
		}
	}
	for _, n := range Names() {
		if !strings.Contains(msg, n) {
			t.Errorf("unknown-policy error missing %q: %v", n, err)
		}
	}
}

func TestNamesAndAliasesSortedAndMarked(t *testing.T) {
	all := NamesAndAliases()
	got := map[string]bool{}
	for _, n := range all {
		got[n] = true
	}
	for _, name := range Names() {
		if !got[name] {
			t.Errorf("NamesAndAliases missing canonical %q", name)
		}
	}
	if !got["trad (= traditional)"] {
		t.Errorf("NamesAndAliases must mark aliases: %v", all)
	}
}

func TestSplitSpecs(t *testing.T) {
	for _, tc := range []struct {
		in   string
		want []string
	}{
		{"l2s", []string{"l2s"}},
		{"l2s,lard", []string{"l2s", "lard"}},
		{"chash:vnodes=64,load=1.25,l2s", []string{"chash:vnodes=64,load=1.25", "l2s"}},
		{"lard,chash:d=2,prox=true,trad", []string{"lard", "chash:d=2,prox=true", "trad"}},
		{"chash:vnodes=64,hashing,l2s:delta=8", []string{"chash:vnodes=64", "hashing", "l2s:delta=8"}},
	} {
		if got := SplitSpecs(tc.in); !reflect.DeepEqual(got, tc.want) {
			t.Errorf("SplitSpecs(%q) = %v, want %v", tc.in, got, tc.want)
		}
	}
}

func TestRegisterParamsRejectsUnknownPolicy(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("RegisterParams on an unregistered name must panic")
		}
	}()
	RegisterParams("never-registered", Param{Key: "x", Apply: func(*Options, float64) {}})
}
