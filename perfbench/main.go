// Command perfbench is the repository's end-to-end and per-layer
// benchmark. One run measures one workload for a fixed number of
// seconds, checks the program's outputs, and prints one JSON object as
// the last line of standard output:
//
//	{"correct": true, "attempted": N, "failed": F, "metrics": {...}}
//
// With -trace 0 the metrics are the end-to-end set; with -trace 1 they
// are the per-layer set, measured through wrappers around the seams the
// program exposes (env.Actor, env.Context, graph.Allocator,
// sched.Policy) and the program's own counters. See README.md.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"sort"
	"strings"
	"time"
)

// metric is one reported figure.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's last output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// workload runs one named workload for the given budget.
type workload struct {
	name string
	run  func(o runOpts) *report
}

// runOpts are the command-line inputs of one run.
type runOpts struct {
	seed    uint64
	seconds float64
	trace   bool
}

var workloads = []workload{
	{"sim-dht-lookup", runSimDHT},
	{"sim-gossip-alloc", runSimGossip},
	{"live-tcp", runLiveTCP},
}

func main() {
	name := flag.String("workload", "", "workload name: "+workloadNames())
	seed := flag.Uint64("seed", 1, "input seed; equal seeds give equal inputs")
	seconds := flag.Float64("seconds", 40, "measurement budget in seconds")
	tr := flag.Int("trace", 0, "1 reports per-layer metrics from a traced run, 0 end-to-end metrics")
	flag.Parse()

	var w *workload
	for i := range workloads {
		if workloads[i].name == *name {
			w = &workloads[i]
		}
	}
	if w == nil {
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q (want one of %s)\n", *name, workloadNames())
		os.Exit(2)
	}
	if *seconds <= 0 || (*tr != 0 && *tr != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: -seconds must be positive and -trace 0 or 1")
		os.Exit(2)
	}
	start := time.Now()
	rep := w.run(runOpts{seed: *seed, seconds: *seconds, trace: *tr == 1})
	rep.print(os.Stderr, w.name, time.Since(start))
	out, err := json.Marshal(rep.result(*tr == 1))
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	fmt.Println(string(out))
}

func workloadNames() string {
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return strings.Join(names, ", ")
}

// report accumulates what one run found: outcome accounting, check
// failures, and the metrics of both sets (only one set is printed).
type report struct {
	attempted int
	failed    int
	failures  map[string]int // failure class -> count
	problems  []string       // correctness-check failures
	endToEnd  map[string]metric
	perLayer  map[string]metric
	notes     []string
}

func newReport() *report {
	return &report{failures: map[string]int{}, endToEnd: map[string]metric{}, perLayer: map[string]metric{}}
}

// problem records a failed correctness check; the run reports
// correct=false if any was recorded.
func (r *report) problem(format string, args ...any) {
	if len(r.problems) < 1000 {
		r.problems = append(r.problems, fmt.Sprintf(format, args...))
	}
}

func (r *report) note(format string, args ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

func (r *report) result(traced bool) result {
	ms := r.endToEnd
	if traced {
		ms = r.perLayer
	}
	return result{Correct: len(r.problems) == 0, Attempted: r.attempted, Failed: r.failed, Metrics: ms}
}

// print writes the human-readable account of the run to w.
func (r *report) print(w *os.File, name string, took time.Duration) {
	fmt.Fprintf(w, "perfbench %s: attempted=%d failed=%d checks=%s (%.1fs)\n",
		name, r.attempted, r.failed, map[bool]string{true: "ok", false: "FAILED"}[len(r.problems) == 0], took.Seconds())
	for _, k := range sortedKeys(r.failures) {
		fmt.Fprintf(w, "  failed %-50s %d\n", k, r.failures[k])
	}
	for _, p := range r.problems {
		fmt.Fprintf(w, "  check: %s\n", p)
	}
	for _, n := range r.notes {
		fmt.Fprintf(w, "  note: %s\n", n)
	}
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
