package main

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"net"
	"net/http"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/cache"
	"repro/internal/native"
	"repro/internal/trace"
)

// The live cluster: four nodes with 8 MB caches, small enough that the
// warm-up fills them, so memory and hit rate hold still while timing; fed
// open loop at a fixed rate well below the rate at which the host
// saturates, so latency measures service and not a growing queue.
const (
	nativeNodes   = 4
	nativeCacheMB = 8
	nativeRate    = 1000 // requests per second
	nativeWarm    = 3000 // requests replayed closed loop before timing
)

// patternStore serves the trace's catalog: file i is /f/<i>, Sizes[i]
// bytes of the alphabet starting at letter i mod 26 (the content
// native.StoreFromTrace builds). The catalog is one shared pattern, so a
// 10^6-file catalog costs no memory; a read copies the body out, as a
// read from disk would, so the nodes' caches hold real bytes.
type patternStore struct {
	sizes []int64
	buf   []byte
}

func newPatternStore(tr *trace.Trace) *patternStore {
	var largest int64
	for _, s := range tr.Sizes {
		largest = max(largest, s)
	}
	buf := make([]byte, largest+26)
	for i := range buf {
		buf[i] = byte('a' + i%26)
	}
	return &patternStore{sizes: tr.Sizes, buf: buf}
}

// body returns file id's content in the shared pattern, to compare with.
func (s *patternStore) body(id int) []byte {
	off := id % 26
	return s.buf[off : off+int(s.sizes[id])]
}

// Get implements native.Store.
func (s *patternStore) Get(path string) ([]byte, bool) {
	id, err := strconv.Atoi(strings.TrimPrefix(path, "/f/"))
	if err != nil || !strings.HasPrefix(path, "/f/") || id < 0 || id >= len(s.sizes) {
		return nil, false
	}
	return bytes.Clone(s.body(id)), true
}

// Paths implements native.Store.
func (s *patternStore) Paths() []string {
	out := make([]string, len(s.sizes))
	for i := range out {
		out[i] = "/f/" + strconv.Itoa(i)
	}
	return out
}

// tracedStore times every store read once switched on, and links each to
// the client request currently fetching that path.
type tracedStore struct {
	*patternStore
	rec      *recorder
	on       atomic.Bool
	gets     atomic.Uint64
	getNanos atomic.Int64
	inflight sync.Map // path -> [2]int{request id, span index}
}

func (s *tracedStore) Get(path string) ([]byte, bool) {
	if !s.on.Load() {
		return s.patternStore.Get(path)
	}
	var id uint64
	parent := -1
	if v, ok := s.inflight.Load(path); ok {
		p := v.([2]int)
		id, parent = uint64(p[0]), p[1]
	}
	idx := s.rec.open("store.Get", id, parent)
	t0 := time.Now()
	b, ok := s.patternStore.Get(path)
	s.getNanos.Add(int64(time.Since(t0)))
	s.rec.close(idx)
	s.gets.Add(1)
	return b, ok
}

// startCluster starts the live cluster on the store and warms it with the
// first nativeWarm requests of the replayed segment, closed loop.
func startCluster(store native.Store, ps *patternStore, seg []cache.FileID) (*native.Cluster, error) {
	cl, err := native.Start(native.WithNodes(nativeNodes), native.WithCacheMB(nativeCacheMB), native.WithStore(store))
	if err != nil {
		return nil, err
	}
	lg := newLoadgen(cl.URLs(), ps)
	defer lg.close()
	res := lg.run(seg[:nativeWarm], nil, nil)
	if bad, bodies := res.count(failed), res.count(wrong); bad != 0 || bodies != 0 {
		cl.Shutdown()
		return nil, fmt.Errorf("native: warm-up had %d failed and %d wrong responses", bad, bodies)
	}
	return cl, nil
}

// loadgen drives the cluster from one process with one worker per CPU,
// each holding at most one request in flight and one keep-alive
// connection per node.
type loadgen struct {
	urls    []string
	store   *patternStore
	clients []*http.Client
	dials   atomic.Uint64
}

func newLoadgen(urls []string, store *patternStore) *loadgen {
	lg := &loadgen{urls: urls, store: store}
	dialer := &net.Dialer{Timeout: 5 * time.Second}
	for w := 0; w < runtime.NumCPU(); w++ {
		tr := &http.Transport{
			DialContext: func(ctx context.Context, network, addr string) (net.Conn, error) {
				lg.dials.Add(1)
				return dialer.DialContext(ctx, network, addr)
			},
			MaxIdleConnsPerHost: 1,
			DisableCompression:  true,
		}
		lg.clients = append(lg.clients, &http.Client{Transport: tr, Timeout: 10 * time.Second})
	}
	return lg
}

func (lg *loadgen) close() {
	for _, c := range lg.clients {
		c.CloseIdleConnections()
	}
}

// outcome is one request as the generator saw it. Latency counts from the
// request's due time, so a stall also delays the requests queued behind
// it; late is how long after its due time the request was sent.
type outcome struct {
	state     uint8   // one of the states below
	handoff   bool    // served through a hand-off (X-Forwarded-By set)
	lat, late float64 // milliseconds
}

const (
	unsent uint8 = iota
	completed
	failed // transport error, non-200 status or body cut short
	wrong  // 200 with a body other than the catalog's
)

// loadResult is what one pass of the generator saw, request by request in
// due order.
type loadResult struct {
	reqs  []outcome
	conns uint64        // connections the generator opened
	drain time.Duration // from the last due time to its completion
}

func (r loadResult) count(state uint8) (n uint64) {
	for _, o := range r.reqs {
		if o.state == state {
			n++
		}
	}
	return n
}

// lat returns the latencies (or, with late set, the lateness) of the
// completed requests that keep.
func (r loadResult) lat(late bool, keep func(outcome) bool) []float64 {
	var xs []float64
	for _, o := range r.reqs {
		if o.state != completed || !keep(o) {
			continue
		}
		if late {
			xs = append(xs, o.late)
		} else {
			xs = append(xs, o.lat)
		}
	}
	return xs
}

func all(outcome) bool { return true }

// run sends reqs[i] at due[i] after the pass starts; a nil due sends every
// request as soon as a worker is free (closed loop). With store tracing
// on, each request is a span and its store reads are linked to it.
func (lg *loadgen) run(reqs []cache.FileID, due []time.Duration, ts *tracedStore) loadResult {
	var next atomic.Int64
	res := loadResult{reqs: make([]outcome, len(reqs))}
	start := time.Now()
	var wg sync.WaitGroup
	for w := range lg.clients {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			lg.worker(w, reqs, due, start, &next, ts, res.reqs)
		}(w)
	}
	wg.Wait()
	if n := len(due); n > 0 {
		res.drain = time.Duration(res.reqs[n-1].lat * float64(time.Millisecond))
	}
	res.conns = lg.dials.Load()
	return res
}

// worker sends requests in due order until none is left; each worker
// writes only the outcomes of the requests it took.
func (lg *loadgen) worker(w int, reqs []cache.FileID, due []time.Duration, start time.Time,
	next *atomic.Int64, ts *tracedStore, out []outcome) {
	client := lg.clients[w]
	var buf bytes.Buffer
	for {
		i := int(next.Add(1) - 1)
		if i >= len(reqs) {
			return
		}
		at := time.Now()
		if due != nil {
			at = start.Add(due[i])
			if d := time.Until(at); d > 0 {
				time.Sleep(d)
			}
		}
		f := int(reqs[i])
		path := "/f/" + strconv.Itoa(f)
		span := -1
		if ts != nil {
			span = ts.rec.open("http.request", uint64(i+1), -1)
			ts.inflight.Store(path, [2]int{i + 1, span})
		}
		sent := time.Now()
		ok, handoff, body := lg.get(client, lg.urls[i%len(lg.urls)]+"/files"+path, &buf)
		done := time.Now()
		if ts != nil {
			ts.inflight.CompareAndDelete(path, [2]int{i + 1, span})
			ts.rec.close(span)
		}
		o := outcome{state: completed, handoff: handoff,
			lat: float64(done.Sub(at)) / 1e6, late: float64(sent.Sub(at)) / 1e6}
		switch {
		case !ok:
			o.state = failed
		case !bytes.Equal(body, lg.store.body(f)):
			o.state = wrong
		}
		out[i] = o
	}
}

// get fetches url fully. A transport error, a non-200 status or a body
// cut short is a failed request.
func (lg *loadgen) get(client *http.Client, url string, buf *bytes.Buffer) (ok, handoff bool, body []byte) {
	resp, err := client.Get(url)
	if err != nil {
		return false, false, nil
	}
	defer resp.Body.Close()
	buf.Reset()
	if _, err := buf.ReadFrom(resp.Body); err != nil || resp.StatusCode != http.StatusOK {
		return false, false, nil
	}
	return true, resp.Header.Get("X-Forwarded-By") != "", buf.Bytes()
}

// arrivals is the open-loop request stream: a seeded Poisson process at
// rate, walking the replayed segment in order, cut into passes.
type arrivals struct {
	seg  []cache.FileID
	next int
	rng  *rand.Rand
}

func newArrivals(seg []cache.FileID, seed int64) *arrivals {
	return &arrivals{seg: seg, rng: rand.New(rand.NewSource(seed))}
}

// take returns the next n requests of the stream, for a closed-loop pass.
func (a *arrivals) take(n int) []cache.FileID {
	reqs := make([]cache.FileID, n)
	for i := range reqs {
		reqs[i] = a.seg[a.next]
		a.next = (a.next + 1) % len(a.seg)
	}
	return reqs
}

// pass returns the requests of the next d of the stream and their due
// times from the start of the pass.
func (a *arrivals) pass(rate float64, d time.Duration) ([]cache.FileID, []time.Duration) {
	var reqs []cache.FileID
	var due []time.Duration
	for t := 0.0; ; {
		t += a.rng.ExpFloat64() / rate
		at := time.Duration(t * float64(time.Second))
		if at >= d {
			return reqs, due
		}
		reqs = append(reqs, a.seg[a.next])
		due = append(due, at)
		a.next = (a.next + 1) % len(a.seg)
	}
}

// clusterCounters sums what every node reports through Snapshot and its
// metric registry.
type clusterCounters struct {
	stats   native.Stats
	buckets []uint64 // request_seconds histogram, summed over nodes
}

func readCluster(cl *native.Cluster, rec *recorder) clusterCounters {
	c := clusterCounters{buckets: make([]uint64, len(native.RequestBuckets)+1)}
	for i := 0; i < cl.Len(); i++ {
		n := cl.Node(i)
		idx := -1
		if rec != nil {
			idx = rec.open("native.Snapshot", 0, -1)
		}
		s := n.Snapshot()
		if rec != nil {
			rec.close(idx)
			idx = rec.open("native.Metrics", 0, -1)
		}
		h := n.Metrics().Histogram("request_seconds", native.RequestBuckets)
		for b := range c.buckets {
			c.buckets[b] += h.BucketCount(b)
		}
		if rec != nil {
			rec.close(idx)
		}
		c.stats.Served += s.Served
		c.stats.Proxied += s.Proxied
		c.stats.Hits += s.Hits
		c.stats.Misses += s.Misses
		c.stats.Retries += s.Retries
		c.stats.Failovers += s.Failovers
		c.stats.GossipOut += s.GossipOut
		c.stats.GossipFail += s.GossipFail
	}
	return c
}

// histQuantile estimates the q-quantile of a bucketed histogram delta by
// linear interpolation inside the bucket that holds it.
func histQuantile(bounds []float64, counts []uint64, q float64) float64 {
	var total uint64
	for _, c := range counts {
		total += c
	}
	if total == 0 {
		return 0
	}
	rank := q * float64(total)
	var seen float64
	for i, c := range counts {
		if seen+float64(c) >= rank && c > 0 {
			lo := 0.0
			if i > 0 {
				lo = bounds[i-1]
			}
			if i == len(bounds) {
				return lo
			}
			return lo + (bounds[i]-lo)*(rank-seen)/float64(c)
		}
		seen += float64(c)
	}
	return bounds[len(bounds)-1]
}
