// Command pimbench records the repository's performance trajectory: it
// times the full artifact suite (every registered experiment, Quick mode,
// through both the serial path and the concurrent engine) plus the
// substrate micro-benchmarks (event queue, process handoff, the two DES
// models, M/M/1 throughput), and writes a machine-readable BENCH_<n>.json
// snapshot — ns/op, allocs/op, suite wall-clock, git SHA — next to the
// previous ones, so every PR appends a point to a measured perf history
// instead of asserting speedups in prose.
//
// Usage:
//
//	go run ./cmd/pimbench                      # append BENCH_<n+1>.json in .
//	go run ./cmd/pimbench -dir out             # scan/write snapshots in out/
//	go run ./cmd/pimbench -o current.json      # explicit output path
//	go run ./cmd/pimbench -against BENCH_1.json -maxregress 0.25
//	go run ./cmd/pimbench -compare BENCH_1.json -suite=false
//	go run ./cmd/pimbench -cpuprofile cpu.pprof -memprofile mem.pprof
//
// With -against, pimbench compares the new suite wall-clock to the given
// snapshot and exits non-zero when it regresses by more than -maxregress
// (CI uses this as the perf gate). -compare prints per-benchmark ns/op
// and allocs/op deltas against a previous snapshot with no gate — the
// tool for eyeballing a work-in-progress optimisation; a bare -compare
// run writes no snapshot (add -o to keep one). -micros=false and
// -suite=false cut the run down for smoke tests; -cpuprofile/-memprofile
// write pprof profiles of the measured run for drilling into a
// regression the trajectory surfaces.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"runtime"
	"runtime/pprof"
	"sort"
	"strconv"
	"testing"
	"time"

	"repro/internal/benches"
	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/rng"
)

// Record is one measured benchmark.
type Record struct {
	// Name identifies the measurement ("micro/kernel_schedule",
	// "experiment/fig5", ...).
	Name string `json:"name"`
	// NsPerOp is nanoseconds per operation (for experiments: per full
	// Quick-mode regeneration).
	NsPerOp float64 `json:"ns_per_op"`
	// AllocsPerOp and BytesPerOp are reported for micro-benchmarks
	// (testing.Benchmark); -1 when not measured.
	AllocsPerOp int64 `json:"allocs_per_op"`
	BytesPerOp  int64 `json:"bytes_per_op"`
}

// Snapshot is one BENCH_<n>.json file.
type Snapshot struct {
	Schema    int    `json:"schema"`
	GitSHA    string `json:"git_sha"`
	GoVersion string `json:"go_version"`
	GOOS      string `json:"goos"`
	GOARCH    string `json:"goarch"`
	Timestamp string `json:"timestamp"`
	// SuiteWallClockSec is the wall-clock of one serial Quick-mode pass
	// over every registered experiment — the regression-gate metric.
	SuiteWallClockSec float64 `json:"suite_wall_clock_sec"`
	// EngineWallClockSec is the same suite through the concurrent engine.
	EngineWallClockSec float64 `json:"engine_wall_clock_sec"`
	// CalibrationSec times a fixed, code-stable CPU workload on this
	// machine. The regression gate divides suite wall-clock by it, so
	// snapshots from machines of different speeds (a laptop baseline vs a
	// CI runner) compare work, not hardware.
	CalibrationSec float64  `json:"calibration_sec"`
	Benchmarks     []Record `json:"benchmarks"`
}

// calibrationSink defeats dead-code elimination of the calibration loop.
var calibrationSink uint64

// calibrate times a fixed SplitMix64 loop. The loop is deliberately not
// simulation code: optimizing the kernel must move the gate metric, while
// a faster or slower host moves calibration and suite together.
func calibrate() float64 {
	const steps = 200_000_000
	sm := rng.SplitMix64{State: 1}
	start := time.Now()
	var sink uint64
	for i := 0; i < steps; i++ {
		sink ^= sm.Next()
	}
	calibrationSink = sink
	return time.Since(start).Seconds()
}

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "pimbench:", err)
		os.Exit(1)
	}
}

func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("pimbench", flag.ContinueOnError)
	dir := fs.String("dir", ".", "directory holding BENCH_<n>.json snapshots")
	outPath := fs.String("o", "", "explicit output file (default: next BENCH_<n>.json in -dir)")
	seed := fs.Uint64("seed", 2004, "suite seed")
	micros := fs.Bool("micros", true, "run the substrate micro-benchmarks")
	suite := fs.Bool("suite", true, "run the artifact suite")
	against := fs.String("against", "", "baseline snapshot to compare the suite wall-clock to")
	maxRegress := fs.Float64("maxregress", 0.25, "max tolerated suite wall-clock regression vs -against")
	compareTo := fs.String("compare", "", "previous snapshot: print ns/op and allocs/op deltas, no gate")
	cpuProfile := fs.String("cpuprofile", "", "write a CPU profile of the measured run to this file")
	memProfile := fs.String("memprofile", "", "write a heap profile taken after the measured run to this file")
	if err := fs.Parse(args); err != nil {
		return err
	}

	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			return err
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			return err
		}
		defer pprof.StopCPUProfile()
	}

	snap := Snapshot{
		Schema:    1,
		GitSHA:    gitSHA(),
		GoVersion: runtime.Version(),
		GOOS:      runtime.GOOS,
		GOARCH:    runtime.GOARCH,
		Timestamp: time.Now().UTC().Format(time.RFC3339),
	}

	if *suite {
		snap.CalibrationSec = calibrate()
		fmt.Fprintf(out, "calibration: %.3fs\n", snap.CalibrationSec)
		serial, engineWall, records, err := measureSuite(*seed, out)
		if err != nil {
			return err
		}
		snap.SuiteWallClockSec = serial
		snap.EngineWallClockSec = engineWall
		snap.Benchmarks = append(snap.Benchmarks, records...)
	}
	if *micros {
		snap.Benchmarks = append(snap.Benchmarks, measureMicros(out)...)
	}
	if *memProfile != "" {
		f, err := os.Create(*memProfile)
		if err != nil {
			return err
		}
		defer f.Close()
		runtime.GC()
		if err := pprof.WriteHeapProfile(f); err != nil {
			return err
		}
	}

	path := *outPath
	if path == "" && *compareTo != "" && *against == "" {
		// A bare -compare is an eyeballing flow: don't litter the snapshot
		// directory with a partial numbered BENCH_<n>.json (a stray one
		// would become the CI gate's baseline). Pass -o to keep the run.
		path = "-"
	}
	if path == "" {
		next, err := nextIndex(*dir)
		if err != nil {
			return err
		}
		path = filepath.Join(*dir, fmt.Sprintf("BENCH_%d.json", next))
	}
	if path != "-" {
		if err := writeSnapshot(path, snap); err != nil {
			return err
		}
		fmt.Fprintf(out, "wrote %s (suite %.2fs, engine %.2fs, %d benchmarks, sha %s)\n",
			path, snap.SuiteWallClockSec, snap.EngineWallClockSec, len(snap.Benchmarks), snap.GitSHA)
	}

	if *compareTo != "" {
		base, err := readSnapshot(*compareTo)
		if err != nil {
			return err
		}
		printDeltas(out, base, snap)
	}
	if *against != "" {
		base, err := readSnapshot(*against)
		if err != nil {
			return err
		}
		return compare(out, base, snap, *maxRegress)
	}
	return nil
}

// printDeltas prints per-benchmark ns/op and allocs/op deltas of the new
// snapshot against a previous one — purely informational, no gate.
func printDeltas(out io.Writer, base, cur Snapshot) {
	type baseRec struct {
		ns     float64
		allocs int64
	}
	prev := make(map[string]baseRec, len(base.Benchmarks))
	for _, r := range base.Benchmarks {
		prev[r.Name] = baseRec{ns: r.NsPerOp, allocs: r.AllocsPerOp}
	}
	fmt.Fprintf(out, "deltas vs %s (%s):\n", base.GitSHA, base.Timestamp)
	fmt.Fprintf(out, "%-26s %14s %12s %14s %12s\n", "benchmark", "ns/op", "Δns/op", "allocs/op", "Δallocs")
	for _, r := range cur.Benchmarks {
		b, ok := prev[r.Name]
		if !ok {
			fmt.Fprintf(out, "%-26s %14.1f %12s %14d %12s\n", r.Name, r.NsPerOp, "(new)", r.AllocsPerOp, "")
			continue
		}
		delete(prev, r.Name)
		dns := "n/a"
		if b.ns > 0 {
			dns = fmt.Sprintf("%+.1f%%", (r.NsPerOp/b.ns-1)*100)
		}
		dal := ""
		if r.AllocsPerOp >= 0 && b.allocs >= 0 {
			dal = fmt.Sprintf("%+d", r.AllocsPerOp-b.allocs)
		}
		fmt.Fprintf(out, "%-26s %14.1f %12s %14d %12s\n", r.Name, r.NsPerOp, dns, r.AllocsPerOp, dal)
	}
	// Anything left in prev was measured in the baseline but not now.
	for _, r := range base.Benchmarks {
		if _, dropped := prev[r.Name]; dropped {
			fmt.Fprintf(out, "%-26s dropped (was %.1f ns/op)\n", r.Name, r.NsPerOp)
		}
	}
}

// measureSuite regenerates every registered experiment once in Quick mode
// — serially (per-experiment timings and the gate metric) and through the
// concurrent engine.
func measureSuite(seed uint64, out io.Writer) (serialSec, engineSec float64, records []Record, err error) {
	cfg := core.Config{Seed: seed, Quick: true, Workers: 1}
	start := time.Now()
	for _, exp := range core.Registry() {
		t0 := time.Now()
		o, rerr := exp.Run(cfg, io.Discard)
		if rerr != nil {
			return 0, 0, nil, fmt.Errorf("%s: %w", exp.ID, rerr)
		}
		if failed := o.Failed(); len(failed) > 0 {
			return 0, 0, nil, fmt.Errorf("%s: check failed: %+v", exp.ID, failed[0])
		}
		records = append(records, Record{
			Name:        "experiment/" + exp.ID,
			NsPerOp:     float64(time.Since(t0).Nanoseconds()),
			AllocsPerOp: -1,
			BytesPerOp:  -1,
		})
	}
	serialSec = time.Since(start).Seconds()
	fmt.Fprintf(out, "suite (serial, quick): %.2fs over %d experiments\n", serialSec, len(records))

	start = time.Now()
	eng := engine.New(engine.Options{})
	results, rerr := eng.RunAll(cfg)
	if rerr != nil {
		return 0, 0, nil, rerr
	}
	for _, r := range results {
		if failed := r.Outcome.Failed(); len(failed) > 0 {
			return 0, 0, nil, fmt.Errorf("%s: check failed: %+v", r.ID, failed[0])
		}
	}
	engineSec = time.Since(start).Seconds()
	fmt.Fprintf(out, "suite (engine, quick): %.2fs\n", engineSec)
	return serialSec, engineSec, records, nil
}

// microBenchmarks is the substrate micro-benchmark suite. Names are part
// of the snapshot schema: the trajectory is only comparable across
// BENCH_<n>.json files if both the names and the workloads stay put —
// the drivers live in internal/benches, shared with the in-repo `go test
// -bench` benchmarks, so the two measurements cannot fork.
var microBenchmarks = []struct {
	name string
	fn   func(b *testing.B)
}{
	{"kernel_schedule", benches.KernelSchedule},
	{"kernel_wait_resume", benches.KernelWaitResume},
	{"kernel_handoff_chain", benches.KernelHandoffChain},
	{"kernel_activity_chain", benches.KernelActivityChain},
	{"mm1_simulation", benches.MM1Simulation},
	{"hostpim_simulate", benches.HostPIMSimulate},
	{"parcelsys_run", benches.ParcelSysRun},
	{"sim_parcel_1k", benches.SimParcel1K},
	{"sim_parcel_par", benches.SimParcelPar},
	{"machine_gups", benches.MachineGUPS},
	{"machine_gups_256", benches.MachineGUPS256},
	{"machine_gups_par", benches.MachineGUPSPar},
	{"machine_decode", benches.MachineDecode},
	{"machine_fault_treesum", benches.MachineFaultTreeSum},
	{"serve_decode", benches.ServeSpecDecode},
	{"serve_roundtrip", benches.ServeRoundTrip},
	{"kernel_hold", benches.KernelHold},
	{"kernel_hold_float", benches.KernelHoldFloat},
	{"machine_dram", benches.MachineDRAM},
	{"machine_dram_par", benches.MachineDRAMPar},
}

// measureMicros runs the substrate micro-benchmarks through
// testing.Benchmark.
func measureMicros(out io.Writer) []Record {
	records := make([]Record, 0, len(microBenchmarks))
	for _, m := range microBenchmarks {
		r := testing.Benchmark(m.fn)
		rec := Record{
			Name:        "micro/" + m.name,
			NsPerOp:     float64(r.NsPerOp()),
			AllocsPerOp: r.AllocsPerOp(),
			BytesPerOp:  r.AllocedBytesPerOp(),
		}
		fmt.Fprintf(out, "%-26s %12.1f ns/op %8d allocs/op\n", rec.Name, rec.NsPerOp, rec.AllocsPerOp)
		records = append(records, rec)
	}
	return records
}

// benchIndexRe matches committed snapshot names.
var benchIndexRe = regexp.MustCompile(`^BENCH_(\d+)\.json$`)

// nextIndex returns 1 + the highest BENCH_<n>.json index in dir.
func nextIndex(dir string) (int, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return 0, err
	}
	max := 0
	for _, e := range entries {
		m := benchIndexRe.FindStringSubmatch(e.Name())
		if m == nil {
			continue
		}
		n, err := strconv.Atoi(m[1])
		if err == nil && n > max {
			max = n
		}
	}
	return max + 1, nil
}

func writeSnapshot(path string, s Snapshot) error {
	sort.Slice(s.Benchmarks, func(i, j int) bool { return s.Benchmarks[i].Name < s.Benchmarks[j].Name })
	data, err := json.MarshalIndent(s, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

func readSnapshot(path string) (Snapshot, error) {
	var s Snapshot
	data, err := os.ReadFile(path)
	if err != nil {
		return s, err
	}
	if err := json.Unmarshal(data, &s); err != nil {
		return s, fmt.Errorf("%s: %w", path, err)
	}
	return s, nil
}

// compare gates the suite wall-clock against a baseline snapshot and
// prints per-benchmark deltas for context.
func compare(out io.Writer, base, cur Snapshot, maxRegress float64) error {
	baseNs := make(map[string]float64, len(base.Benchmarks))
	for _, r := range base.Benchmarks {
		baseNs[r.Name] = r.NsPerOp
	}
	for _, r := range cur.Benchmarks {
		if b, ok := baseNs[r.Name]; ok && b > 0 {
			fmt.Fprintf(out, "%-26s %+7.1f%% vs baseline\n", r.Name, (r.NsPerOp/b-1)*100)
		}
	}
	if base.SuiteWallClockSec <= 0 || cur.SuiteWallClockSec <= 0 {
		fmt.Fprintln(out, "no suite wall-clock on one side; skipping the gate")
		return nil
	}
	if base.GoVersion != cur.GoVersion {
		// Different compilers optimize the suite and the calibration loop
		// differently, so the ratio would gate on codegen, not code.
		fmt.Fprintf(out, "toolchain mismatch (%s vs baseline %s); comparison is informational, skipping the gate\n",
			cur.GoVersion, base.GoVersion)
		return nil
	}
	baseMetric, curMetric := base.SuiteWallClockSec, cur.SuiteWallClockSec
	metric := "suite wall-clock"
	if base.CalibrationSec > 0 && cur.CalibrationSec > 0 {
		// Normalize by each machine's calibration so the gate measures
		// suite work, not host speed (the baseline and the CI runner are
		// different hardware).
		baseMetric /= base.CalibrationSec
		curMetric /= cur.CalibrationSec
		metric = "calibrated suite time"
	}
	ratio := curMetric / baseMetric
	fmt.Fprintf(out, "%s: %.2f vs baseline %.2f (%+.1f%%; gate %+.0f%%)\n",
		metric, curMetric, baseMetric, (ratio-1)*100, maxRegress*100)
	if ratio > 1+maxRegress {
		return fmt.Errorf("%s regressed %.1f%% (> %.0f%% gate) vs baseline %s",
			metric, (ratio-1)*100, maxRegress*100, base.GitSHA)
	}
	return nil
}

// gitSHA returns the current commit hash, or "unknown" outside a git
// checkout.
func gitSHA() string {
	out, err := exec.Command("git", "rev-parse", "HEAD").Output()
	if err != nil {
		return "unknown"
	}
	sha := string(out)
	for len(sha) > 0 && (sha[len(sha)-1] == '\n' || sha[len(sha)-1] == '\r') {
		sha = sha[:len(sha)-1]
	}
	return sha
}
