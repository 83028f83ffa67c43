// Command perfbench is fibril's benchmark. It runs one of three workloads
// against the runtime's default core.Config (P = GOMAXPROCS), checks every
// output, and prints the end-to-end metrics (untraced run) or the
// per-layer metrics (traced run, -trace 1) by name and unit. The last
// line of standard output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// The exit code is 1 when any op or check failed, 2 on a usage error.
// README.md records why each workload was chosen, its inputs and the
// layers it loads; run.sh builds this package and runs it.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"
)

type options struct {
	workload string
	seed     uint64
	seconds  float64
	trace    bool
	// inject makes one timed op fail on purpose ("checksum": its expected
	// result is wrong; "panic": its root panics) to prove the checks
	// catch it.
	inject  string
	spanDir string
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var o options
	var traceFlag int
	fs.StringVar(&o.workload, "workload", "", "workload: "+strings.Join(workloadNames(), ", "))
	fs.Uint64Var(&o.seed, "seed", 1, "workload seed: the same seed generates the same inputs")
	fs.Float64Var(&o.seconds, "seconds", 10, "length of the measured window in seconds")
	fs.IntVar(&traceFlag, "trace", 0, "0: end-to-end metrics from an untraced run; 1: per-layer metrics from a traced run")
	fs.StringVar(&o.inject, "inject", "", `self-test: make one op fail ("checksum" or "panic")`)
	fs.StringVar(&o.spanDir, "spans", ".bench_build/spans", "directory for the traced run's Chrome trace_event file")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if _, ok := workloads[o.workload]; !ok {
		fmt.Fprintf(stderr, "perfbench: unknown -workload %q (have %s)\n", o.workload, strings.Join(workloadNames(), ", "))
		return 2
	}
	if traceFlag != 0 && traceFlag != 1 {
		fmt.Fprintln(stderr, "perfbench: -trace must be 0 or 1")
		return 2
	}
	if o.seconds <= 0 {
		fmt.Fprintln(stderr, "perfbench: -seconds must be > 0")
		return 2
	}
	if o.inject != "" && o.inject != "checksum" && o.inject != "panic" {
		fmt.Fprintln(stderr, `perfbench: -inject must be "checksum" or "panic"`)
		return 2
	}
	o.trace = traceFlag == 1
	var res result
	var err error
	if o.trace {
		res, err = tracedRun(o, stdout)
	} else {
		res, err = endToEndRun(o, stdout)
	}
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	printMetrics(stdout, res)
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	if !res.Correct {
		return 1
	}
	return 0
}

func printMetrics(w io.Writer, res result) {
	names := make([]string, 0, len(res.Metrics))
	for n := range res.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		m := res.Metrics[n]
		fmt.Fprintf(w, "  %-40s %16.4f %s\n", n, m.Value, m.Unit)
	}
	fmt.Fprintf(w, "ops attempted %d, failed %d, correct %v\n", res.Attempted, res.Failed, res.Correct)
}
