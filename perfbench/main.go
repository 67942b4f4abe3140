// Command perfbench is the repository's benchmark: one process that
// drives the simulator, the fleet layer, and the HTTP service through
// their public entry points, checks every report, and prints host-time
// metrics.
//
// Run it from the repository root (run.sh builds it first):
//
//	bash perfbench/run.sh --workload mix --seed 1 --seconds 20 --trace 0
//
// Workloads (see workloadDefs and BENCHMARK.json):
//
//	mix          four simulations of latency-3batch.json per operation
//	fleet-exact  a cold fleet-consolidation-50 run per operation
//	fleet-auto   a warm fleet-mega-10k run per operation (memo hits only)
//	serve        open-loop Poisson requests against server.New on loopback
//	all          every workload in turn
//
// With --trace 0 the last stdout line is a JSON object carrying the
// end-to-end metrics; with --trace 1 it carries the per-layer metrics,
// taken from a traced run plus layer probes, and the run's spans are
// written as Chrome trace JSON under --out. All times are host time.
// The simulator is an unvalidated model: the repository holds no
// hardware reference results, so simulated statistics appear only as
// exact counts and report digests, never as an accuracy figure.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"strings"
)

// options are the command-line settings of one benchmark invocation.
type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	smoke    bool
	out      string
}

func main() {
	var o options
	var traceFlag int
	flag.StringVar(&o.workload, "workload", "", "workload to run: "+strings.Join(workloadNames(), ", ")+", or all")
	flag.Int64Var(&o.seed, "seed", defaultSeed, "input seed (0 = the shipped specs unchanged)")
	flag.Float64Var(&o.seconds, "seconds", 20, "measured window in seconds")
	flag.IntVar(&traceFlag, "trace", 0, "1 = traced run reporting per-layer metrics")
	flag.BoolVar(&o.smoke, "smoke", false, "tiny inputs and a short window, for self-tests")
	flag.StringVar(&o.out, "out", filepath.Join(".bench_build", "perfbench-out"), "directory for Chrome traces and scratch result stores")
	flag.Parse()
	if traceFlag != 0 && traceFlag != 1 {
		fmt.Fprintln(os.Stderr, "perfbench: -trace must be 0 or 1")
		os.Exit(2)
	}
	o.trace = traceFlag == 1
	os.Exit(run(o, os.Stdout))
}

// run executes the selected workloads and returns the exit code: 0 when
// every workload ran and every output check passed, 1 otherwise.
func run(o options, w io.Writer) int {
	var defs []workloadDef
	if o.workload == "all" {
		defs = workloadDefs
	} else if d, ok := lookupWorkload(o.workload); ok {
		defs = []workloadDef{d}
	} else {
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q (want %s or all)\n",
			o.workload, strings.Join(workloadNames(), ", "))
		return 2
	}
	if o.seconds <= 0 {
		fmt.Fprintln(os.Stderr, "perfbench: -seconds must be positive")
		return 2
	}
	if err := checkCheckout(); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	if err := os.MkdirAll(o.out, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	fmt.Fprintf(w, "host: nproc=%d GOMAXPROCS=%d go=%s %s/%s\n",
		runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), runtime.GOOS, runtime.GOARCH)
	fmt.Fprintln(w, "model: unvalidated simulator (no hardware reference results); simulated statistics appear only as exact counts and digests")
	code := 0
	for _, d := range defs {
		res, err := runWorkload(d, o, w)
		if err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", d.name, err)
			return 1
		}
		line, err := json.Marshal(res)
		if err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			return 1
		}
		fmt.Fprintln(w, string(line))
		if !res.Correct {
			code = 1
		}
	}
	return code
}

// checkCheckout fails fast outside a repository checkout: the
// benchmark reads the shipped specs and goldens from the working
// directory.
func checkCheckout() error {
	for _, p := range []string{specPath("latency-3batch.json"), goldenPath("fleet50_quick.golden")} {
		if _, err := os.Stat(p); err != nil {
			return fmt.Errorf("run from the repository root: %w", err)
		}
	}
	return nil
}

// result is the last stdout line of a workload run.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}
