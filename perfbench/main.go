// Command perfbench is the repository benchmark. It times the three ways
// the repository is used — regenerating the paper's artifacts, running one
// large design point, and asking the pimserve daemon for results — through
// the public functions of each layer, checks that every output is correct,
// and prints every metric by name with its unit. The last line of standard
// output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// Usage, from the repository root:
//
//	bash perfbench/run.sh --workload suite-quick|bigrun|serve-mixed \
//	    --seed N --seconds S --trace 0|1
//
// With --trace 0 the metrics are the end-to-end ones, measured in --procs
// processes one after another (runProcs); with --trace 1 the run records
// spans around every layer call it makes, writes them under --out, and
// reports the per-layer metrics instead. README.md lists the workloads and
// what each metric should move.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"
)

// metricDef names one reported metric and its unit.
type metricDef struct{ name, unit string }

// e2eMetrics are reported by every untraced run, on every workload.
var e2eMetrics = []metricDef{
	{"setup_s", "s"},
	{"alloc_mb", "MiB/op"},
	{"wall_ms", "ms"},
	{"serial_ms", "ms"},
}

// layerMetrics are reported by every traced run; a layer the workload
// does not exercise reads 0.
var layerMetrics = []metricDef{
	{"engine.wall_ms", "ms"},
	{"engine.self_ms", "ms"},
	{"engine.parallel_eff", "ratio"},
	{"engine.cache_hits", "count"},
	{"core.sum_ms", "ms"},
	{"core.critical_ms", "ms"},
	{"core.checks_failed", "count"},
	{"core.scenarios_ms", "ms"},
	{"core.fig11_ms", "ms"},
	{"core.fig5_ms", "ms"},
	{"core.fig6_ms", "ms"},
	{"core.accuracy_ms", "ms"},
	{"core.fig12_ms", "ms"},
	{"core.ablation-mtcontrol_ms", "ms"},
	{"core.ablation-topology_ms", "ms"},
	{"core.ablation-overhead_ms", "ms"},
	{"core.replication_ms", "ms"},
	{"hostpim.simulate_ms", "ms"},
	{"queueing.mm1_ms", "ms"},
	{"sim.schedule_ns", "ns"},
	{"sim.act_switch_ns", "ns"},
	{"sim.schedule_allocs", "count"},
	{"parcelsys.run_ms", "ms"},
	{"parcelsys.serial_ms", "ms"},
	{"parcelsys.par_speedup", "ratio"},
	{"parcelsys.ops", "count"},
	{"parcelsys.alloc_mb", "MiB"},
	{"parcelsys.ops_per_s", "1/s"},
	{"isa.setup_ms", "ms"},
	{"isa.run_ms", "ms"},
	{"isa.serial_run_ms", "ms"},
	{"isa.par_speedup", "ratio"},
	{"isa.instructions", "count"},
	{"isa.cycles", "count"},
	{"isa.alloc_mb", "MiB"},
	{"isa.instr_per_s", "1/s"},
	{"isa.decode_ns", "ns"},
	{"isa.decode_allocs", "count"},
	{"isa.dram_run_ms", "ms"},
	{"isa.dram_instructions", "count"},
	{"isa.dram_instr_per_s", "1/s"},
	{"dram.row_hit", "ratio"},
	{"scenario.dispatch_ms", "ms"},
	{"scenario.sim_call_ms", "ms"},
	{"scenario.machine_call_ms", "ms"},
	{"scenario.analytic_call_ms", "ms"},
	{"scenario.queueing_call_ms", "ms"},
	{"serve.decode_us", "us"},
	{"serve.hit_idle_us", "us"},
	{"serve.overhead_ms", "ms"},
	{"serve.p50_ms", "ms"},
	{"serve.tail_ms", "ms"},
	{"serve.tail_pct", "%"},
	{"serve.hit_tail_ms", "ms"},
	{"serve.hit_tail_pct", "%"},
	{"serve.samples", "count"},
	{"serve.hit_samples", "count"},
	{"serve.tput_rps", "1/s"},
	{"serve.accepted", "count"},
	{"serve.shed", "count"},
	{"serve.coalesced", "count"},
	{"serve.deadlines", "count"},
	{"serve.panics", "count"},
	{"serve.cache_hit_ratio", "ratio"},
	{"serve.cache_evictions", "count"},
	{"serve.queue_max", "count"},
	{"serve.gen_late_p99_ms", "ms"},
	{"serve.sent", "count"},
	{"serve.ok", "count"},
	{"bench.trace_overhead_frac", "ratio"},
}

// workloads maps each workload name to its driver.
var workloads = map[string]func(*bench) error{
	"suite-quick": runSuite,
	"bigrun":      runBigrun,
	"serve-mixed": runServe,
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

// bench is one run: its settings, the operation tally, and the values
// the workload reports.
type bench struct {
	seed    uint64
	seconds time.Duration
	nproc   int
	tr      *tracer // nil on untraced runs

	attempted, failed int64
	problems          []string

	values map[string]float64
	notes  []string // human-readable lines printed before the result
}

// op records one attempted operation; a non-nil err counts it failed.
func (b *bench) op(err error) {
	b.attempted++
	if err != nil {
		b.failed++
		if len(b.problems) < 20 {
			b.problems = append(b.problems, err.Error())
		}
	}
}

// set reports a metric value.
func (b *bench) set(name string, v float64) { b.values[name] = v }

// note adds a line to the human-readable report.
func (b *bench) note(format string, args ...any) {
	b.notes = append(b.notes, fmt.Sprintf(format, args...))
}

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(2)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	workload := fs.String("workload", "", "workload: suite-quick, bigrun or serve-mixed")
	seed := fs.Uint64("seed", 1, "input seed")
	seconds := fs.Float64("seconds", 28, "measured seconds")
	trace := fs.Int("trace", 0, "1 records spans and reports per-layer metrics")
	procs := fs.Int("procs", 4, "an untraced run measures in this many processes, one after another, each for seconds/procs")
	out := fs.String("out", ".bench_build", "directory for span files")
	if err := fs.Parse(args); err != nil {
		return err
	}
	drive, ok := workloads[*workload]
	if !ok {
		names := make([]string, 0, len(workloads))
		for n := range workloads {
			names = append(names, n)
		}
		sort.Strings(names)
		return fmt.Errorf("unknown workload %q (known: %v)", *workload, names)
	}
	if *seconds <= 0 || *trace < 0 || *trace > 1 || *procs < 1 {
		return fmt.Errorf("want --seconds > 0, --trace 0 or 1 and --procs >= 1")
	}

	b := &bench{
		seed:    *seed,
		seconds: time.Duration(*seconds * float64(time.Second)),
		nproc:   runtime.NumCPU(),
		values:  map[string]float64{},
	}
	defs := e2eMetrics
	if *trace == 1 {
		b.tr = newTracer()
		defs = layerMetrics
		for _, d := range layerMetrics {
			b.values[d.name] = 0
		}
	}

	prov := provenance()
	prov["workload"], prov["seed"], prov["seconds"], prov["trace"] = *workload, *seed, *seconds, *trace
	provJSON, _ := json.Marshal(prov) // a map of strings, numbers and bools always encodes
	fmt.Printf("provenance %s\n", provJSON)

	if *trace == 0 && *procs > 1 {
		return runProcs(args, *seconds, *procs)
	}
	if err := drive(b); err != nil {
		return fmt.Errorf("%s: %w", *workload, err)
	}

	if b.tr != nil {
		if err := os.MkdirAll(*out, 0o755); err != nil {
			return err
		}
		path := filepath.Join(*out, fmt.Sprintf("spans-%s-seed%d.json", *workload, *seed))
		if err := b.tr.write(path); err != nil {
			return err
		}
		fmt.Printf("spans %s\n", path)
	}

	res := result{Correct: b.failed == 0, Attempted: b.attempted, Failed: b.failed, Metrics: map[string]metric{}}
	for _, line := range b.notes {
		fmt.Println(line)
	}
	for _, d := range defs {
		v, ok := b.values[d.name]
		if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("metric %s was not measured", d.name)
		}
		res.Metrics[d.name] = metric{Value: v, Unit: d.unit}
		fmt.Printf("metric %-30s %14.6g %s\n", d.name, v, d.unit)
	}
	for _, p := range b.problems {
		fmt.Println("FAILED:", p)
	}
	return finish(res)
}

// finish prints the result line and exits 1 when a check failed.
func finish(res result) error {
	line, err := json.Marshal(res)
	if err != nil {
		return fmt.Errorf("encode result: %w", err)
	}
	fmt.Println(string(line))
	if !res.Correct || res.Attempted < 1 {
		os.Exit(1)
	}
	return nil
}

// runProcs measures an untraced run in n processes of this program, one
// after another, each with the same arguments but seconds/n and --procs
// 1, and reports the mean of their values for every metric. On a shared
// 2-vCPU guest the same code runs up to 20% faster or slower from one
// process to the next, more than it drifts within one process over
// minutes: two arrays of the same size, allocated in one process and
// timed in turn, kept speeds 20% apart. With one process per run the
// quartile spread of ten runs was 0.14-0.27 of the median; the mean over
// processes averages the placement out. Each process reports medians
// over its own samples, so a stall inside one does not reach the mean.
func runProcs(args []string, seconds float64, n int) error {
	exe, err := os.Executable()
	if err != nil {
		return err
	}
	child := append(append([]string(nil), args...),
		"--seconds", strconv.FormatFloat(seconds/float64(n), 'g', -1, 64), "--procs", "1")
	res := result{Correct: true, Metrics: map[string]metric{}}
	values := map[string][]float64{}
	for i := 1; i <= n; i++ {
		cmd := exec.Command(exe, child...) // later flags override the caller's
		cmd.Stderr = os.Stderr
		stdout, runErr := cmd.Output() // runs the process to its end
		lines := strings.Split(strings.TrimSpace(string(stdout)), "\n")
		for _, line := range lines[:len(lines)-1] {
			fmt.Printf("proc %d: %s\n", i, line)
		}
		var r result
		if err := json.Unmarshal([]byte(lines[len(lines)-1]), &r); err != nil {
			return fmt.Errorf("process %d printed no result (%v): %w", i, runErr, err)
		}
		res.Correct = res.Correct && r.Correct
		res.Attempted += r.Attempted
		res.Failed += r.Failed
		for _, d := range e2eMetrics {
			m, ok := r.Metrics[d.name]
			if !ok {
				return fmt.Errorf("process %d did not report %s", i, d.name)
			}
			values[d.name] = append(values[d.name], m.Value)
		}
	}
	for _, d := range e2eMetrics {
		v := mean(values[d.name])
		res.Metrics[d.name] = metric{Value: v, Unit: d.unit}
		fmt.Printf("metric %-30s %14.6g %s   (processes: %v)\n", d.name, v, d.unit, values[d.name])
	}
	return finish(res)
}
