package main

import (
	"math"
	"runtime"
	"runtime/metrics"
	"slices"
	"sort"
	"sync"
	"syscall"
	"time"
)

// The host is shared: it runs work like the program's (hash maps over
// more than the caches hold, allocation, sorting) up to a third slower in
// phases lasting from seconds to minutes, which moves whole runs. The
// simulator's time is therefore read against a fixed reference loop of
// that kind of work, run between its repetitions, and reported at the
// loop's nominal speed: a time t taken while the loop's median reading
// was r reads as t * refNominal / r. A loop of pure arithmetic did not
// track the phases at all. Single readings are short and catch transient
// stalls that the simulator's second-long repetitions average out, so
// only their median is used, not the readings around each repetition.
const (
	refOps     = 100_000
	refNominal = 20 * time.Millisecond
)

var refSink uint64

// refLoop runs the reference loop once and returns how long it took.
func refLoop() time.Duration {
	t0 := time.Now()
	m := make(map[uint32]uint32, 1<<12)
	buf := make([]uint64, 0, 1024)
	r := uint64(88172645463325252)
	for i := 0; i < refOps; i++ {
		r ^= r << 13
		r ^= r >> 7
		r ^= r << 17
		m[uint32(r)&(1<<20-1)] += uint32(i)
		buf = append(buf, r)
		if len(buf) == cap(buf) {
			sort.Slice(buf, func(a, b int) bool { return buf[a] < buf[b] })
			buf = buf[:0]
		}
	}
	refSink += uint64(len(m))
	return time.Since(t0)
}

// refClock collects reference loop readings, in ms.
type refClock struct{ all []float64 }

// read takes a reading, after a collection so that it does not pay for
// the previous timed item's garbage.
func (c *refClock) read() {
	settle()
	c.all = append(c.all, float64(refLoop())/1e6)
}

// nominal converts a time taken among the readings to the loop's nominal
// speed.
func (c *refClock) nominal(t float64) float64 {
	return t * float64(refNominal) / 1e6 / median(slices.Clone(c.all))
}

// cpuTime returns the process's user plus system CPU time.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// runtimeCounters reads cumulative allocation and GC counts through
// runtime/metrics, which does not stop the world.
type runtimeCounters struct{ allocBytes, gcCycles uint64 }

func readRuntime() runtimeCounters {
	s := []metrics.Sample{
		{Name: "/gc/heap/allocs:bytes"},
		{Name: "/gc/cycles/total:gc-cycles"},
	}
	metrics.Read(s)
	return runtimeCounters{s[0].Value.Uint64(), s[1].Value.Uint64()}
}

func (a runtimeCounters) sub(b runtimeCounters) runtimeCounters {
	return runtimeCounters{a.allocBytes - b.allocBytes, a.gcCycles - b.gcCycles}
}

// peakSampler tracks the live heap (as of the last completed mark) and
// the goroutine count at a fixed period. It samples through
// runtime/metrics, which is lock-free, so it does not preempt the
// measured goroutines.
type peakSampler struct {
	stop chan struct{}
	done chan struct{}

	mu         sync.Mutex
	heap       uint64
	goroutines uint64
}

func startPeakSampler() *peakSampler {
	p := &peakSampler{stop: make(chan struct{}), done: make(chan struct{})}
	p.sample()
	go func() {
		defer close(p.done)
		tick := time.NewTicker(10 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-p.stop:
				p.sample()
				return
			case <-tick.C:
				p.sample()
			}
		}
	}()
	return p
}

func (p *peakSampler) sample() {
	s := []metrics.Sample{
		{Name: "/gc/heap/live:bytes"},
		{Name: "/sched/goroutines:goroutines"},
	}
	metrics.Read(s)
	p.mu.Lock()
	p.heap = max(p.heap, s[0].Value.Uint64())
	p.goroutines = max(p.goroutines, s[1].Value.Uint64())
	p.mu.Unlock()
}

// finish stops the sampler, waits for it to exit and returns the peaks.
func (p *peakSampler) finish() (heapBytes, goroutines uint64) {
	close(p.stop)
	<-p.done
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.heap, p.goroutines
}

// settle collects garbage left by set-up, so that a timed part starts
// from the same heap state on every run.
func settle() { runtime.GC() }

// liveHeap collects garbage and returns the live heap.
func liveHeap() int64 {
	settle()
	s := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
	metrics.Read(s)
	return int64(s[0].Value.Uint64())
}

// quantile returns the q-quantile of xs by linear interpolation between
// closest ranks; xs is sorted in place. It returns NaN for no samples.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	sort.Float64s(xs)
	pos := q * float64(len(xs)-1)
	lo := int(pos)
	if lo+1 >= len(xs) {
		return xs[len(xs)-1]
	}
	return xs[lo] + (pos-float64(lo))*(xs[lo+1]-xs[lo])
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// ratio returns a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
