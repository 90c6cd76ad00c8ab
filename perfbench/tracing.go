package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"time"
)

// span is one interval at a layer boundary. Spans of one request share an
// ID (0 marks work outside any request); Parent is the index of the
// enclosing span in the recorder, or -1 for a root.
type span struct {
	Name   string `json:"name"`
	ID     uint64 `json:"id"`
	Parent int    `json:"parent"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// recorder keeps spans in memory and writes them out once, at exit, so
// the file system stays out of the traced run.
type recorder struct {
	epoch time.Time
	mu    sync.Mutex
	spans []span
}

func newRecorder() *recorder { return &recorder{epoch: time.Now()} }

// open starts a span and returns its index.
func (r *recorder) open(name string, id uint64, parent int) int {
	start := time.Since(r.epoch).Nanoseconds()
	r.mu.Lock()
	defer r.mu.Unlock()
	r.spans = append(r.spans, span{Name: name, ID: id, Parent: parent, Start: start, End: -1})
	return len(r.spans) - 1
}

// close ends the span open returned.
func (r *recorder) close(idx int) {
	end := time.Since(r.epoch).Nanoseconds()
	r.mu.Lock()
	r.spans[idx].End = end
	r.mu.Unlock()
}

// write stores the spans as JSON lines.
func (r *recorder) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	r.mu.Lock()
	for _, s := range r.spans {
		if err := enc.Encode(s); err != nil {
			r.mu.Unlock()
			f.Close()
			return fmt.Errorf("writing spans: %w", err)
		}
	}
	r.mu.Unlock()
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// boundary aggregates every call through one layer boundary: how many,
// their total time, and the part of it spent in nested boundaries, so a
// layer's self time is total minus child.
type boundary struct {
	count        uint64
	total, child time.Duration
}

func (b *boundary) self() time.Duration { return b.total - b.child }

// stackTracer times nested calls on one goroutine (the simulator is
// single-threaded). Every call is aggregated per boundary; calls that
// belong to a sampled request (id != 0) are also kept as full spans.
type stackTracer struct {
	rec   *recorder
	agg   map[string]*boundary
	stack []frame
	root  int // recorder index of the span every stack-bottom span hangs off
}

type frame struct {
	b     *boundary
	start time.Time
	child time.Duration
	id    uint64
	idx   int // recorder index, or -1 when not sampled
}

func newStackTracer(rec *recorder, root int) *stackTracer {
	return &stackTracer{rec: rec, agg: map[string]*boundary{}, root: root}
}

// enter opens a call through the named boundary. A zero id inherits the
// enclosing call's request.
func (t *stackTracer) enter(name string, id uint64) {
	b := t.agg[name]
	if b == nil {
		b = &boundary{}
		t.agg[name] = b
	}
	parent := t.root
	if n := len(t.stack); n > 0 {
		if id == 0 {
			id = t.stack[n-1].id
		}
		parent = t.stack[n-1].idx
	}
	idx := -1
	if id != 0 {
		idx = t.rec.open(name, id, parent)
	}
	t.stack = append(t.stack, frame{b: b, start: time.Now(), id: id, idx: idx})
}

// exit closes the innermost open call.
func (t *stackTracer) exit() {
	n := len(t.stack) - 1
	f := t.stack[n]
	t.stack = t.stack[:n]
	d := time.Since(f.start)
	f.b.count++
	f.b.total += d
	f.b.child += f.child
	if n > 0 {
		t.stack[n-1].child += d
	}
	if f.idx >= 0 {
		t.rec.close(f.idx)
	}
}

// get returns the named boundary's aggregate (zero if never entered).
func (t *stackTracer) get(name string) boundary {
	if b := t.agg[name]; b != nil {
		return *b
	}
	return boundary{}
}
