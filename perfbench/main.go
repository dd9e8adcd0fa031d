// Command perfbench drives the real sesd binary over loopback HTTP
// with a seeded open-loop stream of mutations and reads, checks every
// answer against its own implementation of the paper's attendance
// model (Eq. 1–3) and constraints, and prints one JSON result line.
// With -trace 1 it also replays the same seeded stream through each
// layer in-process and reports per-layer metrics.
//
//	bash perfbench/run.sh --workload churn --seed 1 --seconds 30 --trace 0
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
)

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line the benchmark prints.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	wl := flag.String("workload", "", "workload: "+strings.Join(workloadNames(), ", "))
	seed := flag.Uint64("seed", 1, "seed for every generated input")
	seconds := flag.Int("seconds", 15, "measured seconds per run")
	trace := flag.Int("trace", 0, "1 = also run the per-layer replay and report per-layer metrics")
	bin := flag.String("bin", "", "directory holding the sesd binary")
	work := flag.String("work", "", "scratch directory for inputs and data dirs")
	flag.Parse()

	// The generator's own collections would stall sends and be charged
	// to the program as latency; its heap stays small, so collect rarely.
	debug.SetGCPercent(400)

	w, ok := workloads[*wl]
	if !ok || *bin == "" || *work == "" || *seconds < 1 {
		fmt.Fprintf(os.Stderr, "perfbench: need -workload (%s), -bin, -work and -seconds >= 1\n",
			strings.Join(workloadNames(), ", "))
		os.Exit(2)
	}
	dir := filepath.Join(*work, fmt.Sprintf("%s-%d", *wl, os.Getpid()))
	if err := os.MkdirAll(dir, 0o755); err != nil {
		fatal(err)
	}
	defer os.RemoveAll(dir)

	r := &run{
		w: w, seed: *seed, seconds: *seconds, traced: *trace == 1,
		bin: *bin, dir: dir, workers: min(runtime.NumCPU(), 2),
	}
	res, err := r.execute()
	r.stopAll()
	if err != nil {
		os.RemoveAll(dir)
		fatal(err)
	}
	out, _ := json.Marshal(res)
	fmt.Println(string(out))
}

func fatal(err error) {
	fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
	os.Exit(1)
}

func workloadNames() []string {
	var names []string
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}
