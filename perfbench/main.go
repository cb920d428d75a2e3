// Command perfbench is the repository's benchmark. It drives Part-HTM,
// built through harness.Build exactly as parthtm-bench builds it, with a
// closed loop of two client goroutines (client i owns tm thread i), and
// prints every metric by name with its unit. The last line of standard
// output is one JSON object: {"correct", "attempted", "failed", "metrics"}.
//
// Usage (from the repository root):
//
//	bash perfbench/run.sh --workload fit --seed 1 --seconds 30 --trace 0
//
// --trace 0 measures the end-to-end metrics on an untraced run. --trace 1
// measures the per-layer metrics instead: spans the benchmark records
// around each call into a layer's public API, the counters the program
// already exposes, and single-thread microloops over each layer (the
// ledger). Throughput is raw host time; nothing is projected.
//
// Workloads (BENCHMARK.json records why each was chosen):
//
//	fit           nrmw Figure 3(a): every transaction fits in hardware
//	labyrinth     STAMP labyrinth Default(): back-to-back app runs
//	fit-observed  fit with the whole telemetry plane attached
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"time"
)

// clients is the closed-loop client count: one per host core of the
// reference host, each owning exactly one tm thread id.
const clients = 2

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report is the benchmark's result line.
type report struct {
	Correct   bool              `json:"correct"`
	Attempted uint64            `json:"attempted"`
	Failed    uint64            `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`

	order []string // print order of Metrics
}

func (r *report) set(name, unit string, v float64) {
	if r.Metrics == nil {
		r.Metrics = map[string]metric{}
	}
	if _, ok := r.Metrics[name]; !ok {
		r.order = append(r.order, name)
	}
	r.Metrics[name] = metric{Value: v, Unit: unit}
}

func main() {
	var (
		name    = flag.String("workload", "", "workload: fit, labyrinth or fit-observed")
		seed    = flag.Int64("seed", 1, "workload seed")
		seconds = flag.Int("seconds", 30, "measured seconds")
		traced  = flag.Int("trace", 0, "0 = end-to-end metrics (untraced), 1 = per-layer metrics (traced)")
	)
	flag.Parse()
	w, ok := workloadByName(*name)
	if !ok || *seconds < 1 || (*traced != 0 && *traced != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: want --workload {fit,labyrinth,fit-observed} --seconds >= 1 --trace {0,1}\n")
		os.Exit(2)
	}
	fmt.Printf("host %s\n", hostStamp(*seed))
	fmt.Printf("reproduce: bash perfbench/run.sh --workload %s --seed %d --seconds %d --trace %d\n",
		w.name, *seed, *seconds, *traced)

	d := time.Duration(*seconds) * time.Second
	var rep report
	if *traced == 1 {
		rep = runTraced(w, *seed, d)
	} else {
		rep = runEndToEnd(w, *seed, d)
	}
	for _, k := range rep.order {
		m := rep.Metrics[k]
		fmt.Printf("%-28s %14.4f %s\n", k, m.Value, m.Unit)
	}
	out, err := json.Marshal(rep)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: encode result: %v\n", err)
		os.Exit(2)
	}
	fmt.Println(string(out))
	if !rep.Correct {
		os.Exit(1)
	}
}
