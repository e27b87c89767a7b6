// Command perfbench is the repository's same-machine benchmark. It runs
// one seeded workload against an in-process comms session (or one whose
// brokers talk over loopback TCP), checks every output, and prints the
// workload's metrics; the last line of standard output is one JSON
// object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// With -trace 0 the metrics are the end-to-end ones, measured with the
// benchmark's own spans off; with -trace 1 they are the per-layer ones,
// taken from spans around the calls the benchmark makes into each layer
// and from before/after deltas of every broker's metrics registry.
//
// Usage (from the repository root):
//
//	bash perfbench/run.sh --workload pmi-exchange --seed 1 --seconds 10 --trace 0
//
// README.md in this directory lists the workloads, the metrics, and
// which end-to-end metric each per-layer metric should move.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"sort"
	"strings"
	"sync/atomic"
	"syscall"
	"time"
)

// spansDir is where a traced run writes its spans, inside the build
// directory the run script uses.
const spansDir = ".bench_build/spans"

// config is one run's parameters.
type config struct {
	workload string
	seed     int64
	seconds  time.Duration
	trace    bool
}

// outcome is what a workload measured. e2e holds the end-to-end
// metrics, layers the per-layer ones (computed in every run; printed
// only by a traced run), report the human-readable lines.
type outcome struct {
	attempted int64
	failed    int64
	e2e       map[string]float64
	layers    map[string]float64
	report    []string
}

func (o *outcome) reportf(format string, args ...any) {
	o.report = append(o.report, fmt.Sprintf(format, args...))
}

var workloads = map[string]func(config) (*outcome, error){
	"pmi-exchange":   runPMI,
	"job-throughput": runJobs,
	"tcp-rpc":        runRPC,
}

type metricJSON struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type resultJSON struct {
	Correct   bool                  `json:"correct"`
	Attempted int64                 `json:"attempted"`
	Failed    int64                 `json:"failed"`
	Metrics   map[string]metricJSON `json:"metrics"`
}

func main() {
	var cfg config
	var seconds, trace int
	flag.StringVar(&cfg.workload, "workload", "", "workload to run: "+strings.Join(workloadNames(), ", ")+", or all")
	flag.Int64Var(&cfg.seed, "seed", 1, "workload seed")
	flag.IntVar(&seconds, "seconds", 10, "measurement time per run, seconds")
	flag.IntVar(&trace, "trace", 0, "1 records spans and prints the per-layer metrics")
	flag.Parse()
	cfg.seconds = time.Duration(seconds) * time.Second
	cfg.trace = trace == 1
	names := []string{cfg.workload}
	if cfg.workload == "all" {
		names = workloadNames()
	}
	if _, ok := workloads[names[0]]; !ok || seconds < 1 || (trace != 0 && trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: need --workload (%s or all), --seconds >= 1, --trace 0|1\n", strings.Join(workloadNames(), ", "))
		os.Exit(2)
	}
	for _, name := range names {
		cfg.workload = name
		if err := runOne(cfg); err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", name, err)
			os.Exit(1)
		}
	}
}

// runOne runs one workload and prints its report, ending with the JSON
// result line.
func runOne(cfg config) error {
	out, err := workloads[cfg.workload](cfg)
	if err != nil {
		return err
	}
	res := resultJSON{
		Correct:   out.failed == 0 && out.attempted > 0,
		Attempted: out.attempted,
		Failed:    out.failed,
		Metrics:   map[string]metricJSON{},
	}
	defs, values := endToEnd, out.e2e
	if cfg.trace {
		defs, values = perLayer, out.layers
	}
	for _, line := range out.report {
		fmt.Println(line)
	}
	fmt.Printf("%s: ops_attempted=%d ops_failed=%d\n", cfg.workload, out.attempted, out.failed)
	for _, d := range defs {
		res.Metrics[d.name] = metricJSON{Value: values[d.name], Unit: d.unit}
		if d.moves != "" {
			fmt.Printf("  %-36s %14.4f %-5s -> %s\n", d.name, values[d.name], d.unit, d.moves)
		}
	}
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}

func workloadNames() []string {
	var names []string
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// failures counts failed operations and prints the first few reasons
// to standard error. Nothing is retried away: a failed call or a wrong
// output is one failure.
type failures struct {
	n atomic.Int64
}

func (f *failures) add(format string, args ...any) {
	if f.n.Add(1) <= 5 {
		fmt.Fprintln(os.Stderr, "perfbench: failure:", fmt.Sprintf(format, args...))
	}
}

// cpuTime returns the process's user+system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// heapInuseMB returns the Go heap in use, in MiB.
func heapInuseMB() float64 {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return float64(m.HeapInuse) / (1 << 20)
}
