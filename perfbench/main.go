// Command perfbench is the repository's benchmark. It measures both halves
// of the repository on every workload: the simulator (server.Run, closed
// loop at saturation, the paper's methodology) and the live native cluster
// (four in-process HTTP nodes on loopback). A workload pairs one simulated
// configuration with one request stream for the live cluster; the workload
// seed shapes only the generated traces, which are all the program sees.
//
//	bash perfbench/run.sh --workload paper16-hot --seed 1 --seconds 25 --trace 0
//
// With --trace 0 it prints the end-to-end metrics, measured untraced; with
// --trace 1 it wraps every layer boundary it can reach from outside, prints
// the per-layer metrics and writes the spans under --spans. The last line
// of standard output is one JSON object; a failed output check sets
// "correct" to false, and the run counts as wrong rather than slow.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"repro/internal/trace"
)

// workload is a simulated configuration and a stream for the live
// cluster. Both specs take the workload seed.
type workload struct {
	name      string
	simNodes  int
	simCache  int64 // per-node simulated cache, bytes; 0 for the paper's 32 MB
	sim       func(seed int64) (trace.GenSpec, error)
	live      func(seed int64) (trace.GenSpec, error)
	setupReps int // set-ups per untraced run; setup_s is their median
}

var workloads = []workload{
	// The simulator runs the paper's own configuration: L2S on 16 nodes
	// with 32 MB each over the Clarknet trace of Table 2, cut to 400k
	// requests. Caches hold the working set and gossip takes the per-pair
	// path below 32 receivers, so it bypasses every fleet-scale mechanism.
	// The live cluster gets a warmed Calgary-shaped stationary stream: its
	// read path (entry decision, hand-off hop, cache hits), with few
	// server-set creations.
	{name: "paper16-hot", simNodes: 16, sim: clarknet, live: calgary, setupReps: 7},
	// The simulator runs L2S on 1024 nodes over a stationary Zipf catalog
	// of 10^6 files: flattened gossip epochs dominate the run, and sizing
	// 10^6 files dominates set-up. Each node caches 128 KB, so the ~300 MB
	// of files the trace touches overflow the cluster's 128 MB: LRU
	// eviction (~0.27 per request), the miss path and per-file policy
	// state are on the hot path. The live cluster gets a shot-noise stream
	// in which new documents keep arriving: each creates a server set, so
	// set gossip and store reads are on its path.
	{name: "fleet1024-churn", simNodes: 1024, simCache: 128 << 10, sim: fleet, live: churn, setupReps: 3},
}

func clarknet(seed int64) (trace.GenSpec, error) {
	s, err := trace.PaperTrace("clarknet")
	s.Requests, s.Seed = 400_000, seed
	return s, err
}

func fleet(seed int64) (trace.GenSpec, error) {
	return trace.GenSpec{Name: "fleet", Files: 1_000_000, AvgFileKB: 6, AvgReqKB: 5,
		Alpha: 0.8, LocalityP: 0.3, Requests: 100_000, Seed: seed}, nil
}

func calgary(seed int64) (trace.GenSpec, error) {
	s, err := trace.PaperTrace("calgary")
	s.Requests, s.Seed = 100_000, seed
	return s, err
}

func churn(seed int64) (trace.GenSpec, error) {
	return trace.GenSpec{Name: "churn", Mode: trace.ModeChurn, Files: 40_000, AvgFileKB: 16,
		Requests: 100_000, Horizon: 300, DocLifetime: 12, Seed: seed}, nil
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type report struct {
	Correct   bool              `json:"correct"`
	Attempted uint64            `json:"attempted"`
	Failed    uint64            `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func newReport() *report { return &report{Correct: true, Metrics: map[string]metric{}} }

func (r *report) set(name, unit string, v float64) { r.Metrics[name] = metric{v, unit} }

// fail records a failed output check.
func (r *report) fail(format string, args ...any) {
	r.Correct = false
	fmt.Fprintf(os.Stderr, "check failed: "+format+"\n", args...)
}

func main() {
	name := flag.String("workload", "", "workload name")
	seed := flag.Int64("seed", 1, "workload seed")
	seconds := flag.Float64("seconds", 30, "seconds to measure")
	traced := flag.Int("trace", 0, "1 for the traced per-layer run")
	spans := flag.String("spans", filepath.Join(".bench_build", "spans"), "directory for span files")
	flag.Parse()

	var w *workload
	for i := range workloads {
		if workloads[i].name == *name {
			w = &workloads[i]
		}
	}
	if w == nil || *seconds <= 0 || (*traced != 0 && *traced != 1) {
		fmt.Fprintln(os.Stderr, "usage: perfbench --workload paper16-hot|fleet1024-churn --seed <n> --seconds <s> --trace 0|1")
		os.Exit(2)
	}
	d := time.Duration(*seconds * float64(time.Second))
	var r *report
	var err error
	if *traced == 1 {
		r, err = runTraced(*w, *seed, d, filepath.Join(*spans, fmt.Sprintf("%s-seed%d.jsonl", w.name, *seed)))
	} else {
		r, err = runUntraced(*w, *seed, d)
	}
	if err == nil {
		var out []byte
		if out, err = json.Marshal(r); err == nil {
			fmt.Println(string(out))
			return
		}
	}
	fmt.Fprintln(os.Stderr, "perfbench:", err)
	os.Exit(1)
}
