package sim

import (
	"math/rand"
	"sort"
	"testing"
)

// The differential test drives the engine and a deliberately naive
// reference calendar — one sorted slice holding every pending event, with
// FCFS finish times computed from first principles — through the same
// seeded mix of operations, and requires the engine to fire exactly the
// reference's (when, seq)-minimal event every time. It covers what the
// engine keeps out of its calendar: completions chained behind a busy
// resource's head, deferred and folded bank charges that move a resource's
// free time between acquires, and a queue deep enough to span several
// chain-pool chunks.

// chooser supplies the choices of one differential run: a seeded generator
// for the test, raw bytes for the fuzz target.
type chooser interface {
	intn(n int) int
	done() bool
}

type rngChooser struct{ *rand.Rand }

func (c rngChooser) intn(n int) int { return c.Intn(n) }
func (c rngChooser) done() bool     { return false }

// byteChooser reads one choice per byte and reports done once the input is
// spent.
type byteChooser struct {
	data []byte
	i    int
}

func (c *byteChooser) intn(n int) int {
	if c.i >= len(c.data) {
		return 0
	}
	c.i++
	return int(c.data[c.i-1]) % n
}

func (c *byteChooser) done() bool { return c.i >= len(c.data) }

// refEvent is one pending event of the reference calendar; id names it in
// the harness's event table.
type refEvent struct {
	when Time
	seq  uint64
	id   int
}

// refResource mirrors one resource's FCFS state from first principles.
type refResource struct {
	r    *Resource
	free []Time
	busy Time
	jobs uint64      // acquires, each of which must complete
	bank *ChargeBank // non-nil for banked resources
	slot int         // the resource's index in bank
}

// book is the FCFS recurrence: the first earliest-free server starts the
// job no earlier than at.
func (rr *refResource) book(at, service Time) Time {
	best := 0
	for i := range rr.free {
		if rr.free[i] < rr.free[best] {
			best = i
		}
	}
	start := max(rr.free[best], at)
	rr.free[best] = start + service
	rr.busy += service
	return rr.free[best]
}

type diffEvent struct {
	ev         Event // zero for completions
	completion bool
	live       bool
}

type calendarDiff struct {
	t      testing.TB
	c      chooser
	e      *Engine
	now    Time
	seq    uint64
	fired  uint64
	ref    []refEvent // sorted by (when, seq)
	events []diffEvent
	res    []*refResource
	bursts int
	nested int
}

var (
	diffDelays   = []Time{0, 1e-6, 1e-6, 2e-6, 5e-6, 1e-3}
	diffServices = []Time{0, 0, 1e-6, 1e-6, 2e-6, 3e-6, 5e-6}
	diffOffsets  = []Time{-5e-6, -1e-6, 0, 0, 1e-6, 4e-6}
)

const bankSvc = 2e-6

func newCalendarDiff(t testing.TB, c chooser) *calendarDiff {
	d := &calendarDiff{t: t, c: c, e: NewEngine()}
	for _, servers := range []int{1, 1, 2, 3} {
		r := NewResource(d.e, "r", servers)
		d.res = append(d.res, &refResource{r: r, free: make([]Time, servers)})
	}
	banked := []*Resource{NewResource(d.e, "b0", 1), NewResource(d.e, "b1", 1)}
	bank := NewChargeBank(bankSvc, banked)
	for i, r := range banked {
		d.res = append(d.res, &refResource{r: r, free: make([]Time, 1), bank: bank, slot: i})
	}
	return d
}

func (d *calendarDiff) pick(ts []Time) Time { return ts[d.c.intn(len(ts))] }

// add files a new event in the reference under the next sequence number.
func (d *calendarDiff) add(when Time, completion bool) int {
	id := len(d.events)
	d.events = append(d.events, diffEvent{completion: completion, live: true})
	ev := refEvent{when: when, seq: d.seq, id: id}
	d.seq++
	i := sort.Search(len(d.ref), func(i int) bool {
		r := d.ref[i]
		return r.when > when || (r.when == when && r.seq > ev.seq)
	})
	d.ref = append(d.ref, refEvent{})
	copy(d.ref[i+1:], d.ref[i:])
	d.ref[i] = ev
	return id
}

// onFire is every event's callback: the engine must be firing the
// reference's minimum, at its time, with the counters in step.
func (d *calendarDiff) onFire(id int) {
	d.t.Helper()
	if len(d.ref) == 0 {
		d.t.Fatalf("event %d fired with the reference calendar empty", id)
	}
	want := d.ref[0]
	d.ref = d.ref[1:]
	if id != want.id || d.e.Now() != want.when {
		d.t.Fatalf("fired event %d at t=%v, reference fires event %d (seq %d) at t=%v",
			id, d.e.Now(), want.id, want.seq, want.when)
	}
	d.events[id].live = false
	d.now = want.when
	d.fired++
	d.checkCounters("fire")
	// Events scheduled from inside callbacks — acquires from completion
	// callbacks above all — are where a chain must pick up behind a head
	// that is itself being retired.
	if d.nested < 4000 && !d.c.done() && d.c.intn(3) == 0 {
		d.nested++
		d.op(false)
	}
}

func (d *calendarDiff) checkCounters(where string) {
	d.t.Helper()
	if d.e.Fired() != d.fired || d.e.Pending() != len(d.ref) {
		d.t.Fatalf("%s: Fired=%d Pending=%d, reference %d and %d",
			where, d.e.Fired(), d.e.Pending(), d.fired, len(d.ref))
	}
}

func (d *calendarDiff) acquire(rr *refResource, service Time) {
	d.t.Helper()
	want := rr.book(d.now, service)
	rr.jobs++
	id := d.add(want, true)
	if got := rr.r.Acquire(service, func() { d.onFire(id) }); got != want {
		d.t.Fatalf("Acquire(%v) finishes at %v, reference %v", service, got, want)
	}
}

// op applies one randomly chosen operation; top-level operations may also
// advance the clock.
func (d *calendarDiff) op(top bool) {
	d.t.Helper()
	n := 9
	if top {
		n = 12
	}
	switch k := d.c.intn(n); k {
	case 0, 1, 2: // acquire on any resource, zero and tied services included
		rr := d.res[d.c.intn(len(d.res))]
		d.acquire(rr, d.pick(diffServices))
	case 3: // schedule
		delay := d.pick(diffDelays)
		id := d.add(d.now+delay, false)
		d.events[id].ev = d.e.Schedule(delay, func() { d.onFire(id) })
	case 4: // at
		t := d.now + d.pick(diffDelays)
		id := d.add(t, false)
		d.events[id].ev = d.e.At(t, func() { d.onFire(id) })
	case 5: // cancel any callback event, live, fired or already cancelled
		if len(d.events) == 0 {
			return
		}
		id := d.c.intn(len(d.events))
		ev := &d.events[id]
		if ev.completion {
			return
		}
		ev.ev.Cancel()
		if ev.live {
			ev.live = false
			for i := range d.ref {
				if d.ref[i].id == id {
					d.ref = append(d.ref[:i], d.ref[i+1:]...)
					break
				}
			}
		}
	case 6: // direct charge, arriving in the past, now, or the future
		rr := d.res[d.c.intn(len(d.res))]
		at, service := d.now+d.pick(diffOffsets), d.pick(diffServices)
		want := rr.book(at, service)
		if got := rr.r.ChargeAt(at, service); got != want {
			d.t.Fatalf("ChargeAt(%v, %v) = %v, reference %v", at, service, got, want)
		}
	case 7: // deferred bank charge
		rr := d.res[len(d.res)-1-d.c.intn(2)]
		at := d.now + d.pick(diffOffsets)
		want := rr.book(at, bankSvc)
		if got := rr.bank.ChargeAt(rr.slot, at); got != want {
			d.t.Fatalf("ChargeBank.ChargeAt(%v) = %v, reference %v", at, got, want)
		}
	case 8: // folded bank charges: n arrivals, each at or after the chain
		rr := d.res[len(d.res)-1-d.c.intn(2)]
		count := 1 + d.c.intn(4)
		for i := 0; i < count; i++ {
			rr.book(rr.free[0]+d.pick(diffOffsets[2:]), bankSvc)
		}
		rr.bank.FoldDeferred(rr.slot, rr.free[0], uint32(count))
	case 9:
		if d.bursts < 2 {
			d.burst(d.res[d.c.intn(2)])
		}
	case 10: // fire one event; its callback checks it
		if !d.e.Step() && len(d.ref) != 0 {
			d.t.Fatalf("Step() fired nothing with %d reference events pending", len(d.ref))
		}
	case 11: // run to a time, leaving later events pending
		until := d.now + d.pick(diffDelays)
		d.e.RunUntil(until)
		if len(d.ref) != 0 && d.ref[0].when <= until {
			d.t.Fatalf("RunUntil(%v) left event %d due at %v", until, d.ref[0].id, d.ref[0].when)
		}
		if d.e.Now() != until {
			d.t.Fatalf("RunUntil(%v) left the clock at %v", until, d.e.Now())
		}
		d.now = until
	}
}

// burst queues more jobs on one single-server resource than several
// chain-pool chunks hold.
func (d *calendarDiff) burst(rr *refResource) {
	d.t.Helper()
	d.bursts++
	for i := 0; i < 3*chainChunkLen+7; i++ {
		d.acquire(rr, d.pick(diffServices))
	}
}

// run applies up to ops top-level operations, drains the calendar, and
// checks every resource's final busy time and completion count.
func (d *calendarDiff) run(ops int) {
	d.t.Helper()
	for i := 0; i < ops && !d.c.done(); i++ {
		d.op(true)
		d.checkCounters("op")
	}
	d.e.Run()
	if len(d.ref) != 0 {
		d.t.Fatalf("engine drained with %d reference events pending, next %d at %v",
			len(d.ref), d.ref[0].id, d.ref[0].when)
	}
	d.checkCounters("drain")
	for i, rr := range d.res {
		if got := rr.r.BusyTime(); got != rr.busy {
			d.t.Fatalf("resource %d: BusyTime %v, reference %v", i, got, rr.busy)
		}
		if rr.r.Completed() != rr.jobs || rr.r.InSystem() != 0 {
			d.t.Fatalf("resource %d: %d of %d jobs completed, %d left in system",
				i, rr.r.Completed(), rr.jobs, rr.r.InSystem())
		}
	}
}

// TestCalendarMatchesReference is the differential fire-order test.
func TestCalendarMatchesReference(t *testing.T) {
	for seed := int64(1); seed <= 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		d := newCalendarDiff(t, rngChooser{rng})
		if seed%4 == 0 {
			d.burst(d.res[0])
		}
		d.run(3000)
		if d.e.chainLen < 2*chainChunkLen {
			t.Fatalf("seed %d: only %d completions were ever queued at once", seed, d.e.chainLen)
		}
	}
}

// FuzzCalendarOrder drives the same differential harness from raw bytes,
// one choice per byte.
func FuzzCalendarOrder(f *testing.F) {
	f.Add([]byte{0, 0, 0, 10, 10, 10})
	f.Add([]byte{9, 0, 1, 0, 10, 3, 5, 11, 2, 8, 7, 10, 6, 4, 10, 10})
	f.Add([]byte{0, 3, 0, 0, 3, 1, 0, 3, 2, 5, 7, 1, 8, 0, 9, 10, 10, 11, 4, 0, 1, 6, 2, 3})
	f.Fuzz(func(t *testing.T, data []byte) {
		newCalendarDiff(t, &byteChooser{data: data}).run(len(data))
	})
}
