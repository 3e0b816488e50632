package repro

// One benchmark per table and figure of the paper (plus the ablations and
// the substrate micro-benchmarks). Each artifact benchmark regenerates its
// experiment end to end in Quick mode, so `go test -bench=.` is a full,
// timed reproduction pass.

import (
	"io"
	"testing"

	"repro/internal/benches"
	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/sim"
)

// --- Suite-level execution: serial baseline vs concurrent engine ---
//
// Run both with `go test -bench='RunAll' -benchtime=1x` to compare. The
// experiments are independent, so with GOMAXPROCS >= 4 the engine's
// wall-clock time should beat the serial baseline by >= 2x (cfg.Workers
// is pinned to 1 in both so inner sweeps don't contend for the same
// cores the engine is fanning experiments out onto).

// BenchmarkRunAllSerial is the serial baseline: core.RunAll in Quick mode.
func BenchmarkRunAllSerial(b *testing.B) {
	cfg := core.Config{Seed: 2004, Quick: true, Workers: 1}
	for i := 0; i < b.N; i++ {
		outs, err := core.RunAll(cfg, io.Discard)
		if err != nil {
			b.Fatal(err)
		}
		for id, o := range outs {
			if failed := o.Failed(); len(failed) > 0 {
				b.Fatalf("%s: check failed: %+v", id, failed[0])
			}
		}
	}
}

// BenchmarkEngineRunAll regenerates the same suite through the concurrent
// engine.
func BenchmarkEngineRunAll(b *testing.B) {
	cfg := core.Config{Seed: 2004, Quick: true, Workers: 1}
	eng := engine.New(engine.Options{})
	for i := 0; i < b.N; i++ {
		results, err := eng.RunAll(cfg)
		if err != nil {
			b.Fatal(err)
		}
		for _, r := range results {
			if failed := r.Outcome.Failed(); len(failed) > 0 {
				b.Fatalf("%s: check failed: %+v", r.ID, failed[0])
			}
		}
	}
}

// BenchmarkEngineReplicated measures a 4-replication aggregated pass over
// a representative experiment.
func BenchmarkEngineReplicated(b *testing.B) {
	e, err := core.Find("fig12")
	if err != nil {
		b.Fatal(err)
	}
	cfg := core.Config{Seed: 2004, Quick: true, Workers: 1}
	eng := engine.New(engine.Options{Replications: 4})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := eng.Run(cfg, []*core.Experiment{e}); err != nil {
			b.Fatal(err)
		}
	}
}

// benchExperiment regenerates one registered experiment per iteration.
func benchExperiment(b *testing.B, id string) {
	b.Helper()
	e, err := core.Find(id)
	if err != nil {
		b.Fatal(err)
	}
	cfg := core.Config{Seed: 2004, Quick: true}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		o, err := e.Run(cfg, io.Discard)
		if err != nil {
			b.Fatal(err)
		}
		if failed := o.Failed(); len(failed) > 0 {
			b.Fatalf("%s: check failed: %+v", id, failed[0])
		}
	}
}

// --- Paper artifacts ---

func BenchmarkTable1Params(b *testing.B)       { benchExperiment(b, "table1") }
func BenchmarkFig4Timeline(b *testing.B)       { benchExperiment(b, "fig4") }
func BenchmarkFig9Migration(b *testing.B)      { benchExperiment(b, "fig9") }
func BenchmarkFig5Gain(b *testing.B)           { benchExperiment(b, "fig5") }
func BenchmarkFig6ResponseTime(b *testing.B)   { benchExperiment(b, "fig6") }
func BenchmarkFig7Analytic(b *testing.B)       { benchExperiment(b, "fig7") }
func BenchmarkAccuracyBand(b *testing.B)       { benchExperiment(b, "accuracy") }
func BenchmarkFig11LatencyHiding(b *testing.B) { benchExperiment(b, "fig11") }
func BenchmarkFig12IdleTime(b *testing.B)      { benchExperiment(b, "fig12") }
func BenchmarkBandwidthClaims(b *testing.B)    { benchExperiment(b, "bandwidth") }
func BenchmarkSensitivity(b *testing.B)        { benchExperiment(b, "sensitivity") }
func BenchmarkReplication(b *testing.B)        { benchExperiment(b, "replication") }
func BenchmarkCombinedHybrid(b *testing.B)     { benchExperiment(b, "combined") }

// --- Ablations ---

func BenchmarkAblationControlPolicy(b *testing.B) { benchExperiment(b, "ablation-control") }
func BenchmarkAblationOverhead(b *testing.B)      { benchExperiment(b, "ablation-overhead") }
func BenchmarkAblationTopology(b *testing.B)      { benchExperiment(b, "ablation-topology") }
func BenchmarkAblationCache(b *testing.B)         { benchExperiment(b, "ablation-cache") }
func BenchmarkAblationOverlap(b *testing.B)       { benchExperiment(b, "ablation-overlap") }
func BenchmarkAblationDRAM(b *testing.B)          { benchExperiment(b, "ablation-dram") }
func BenchmarkAblationHotspot(b *testing.B)       { benchExperiment(b, "ablation-hotspot") }
func BenchmarkAblationMTControl(b *testing.B)     { benchExperiment(b, "ablation-mtcontrol") }

// --- Substrate micro-benchmarks ---

// BenchmarkKernelEventThroughput measures raw event scheduling and
// dispatch (no processes).
func BenchmarkKernelEventThroughput(b *testing.B) {
	k := sim.NewKernel()
	var tick func()
	n := 0
	tick = func() {
		n++
		if n < b.N {
			k.Schedule(1, tick)
		}
	}
	b.ResetTimer()
	k.Schedule(1, tick)
	if _, err := k.RunUntilIdle(); err != nil {
		b.Fatal(err)
	}
}

// BenchmarkKernelProcessSwitch measures the goroutine handoff cost of one
// process Wait.
func BenchmarkKernelProcessSwitch(b *testing.B) {
	k := sim.NewKernel()
	k.Spawn("p", func(c *sim.Context) {
		for i := 0; i < b.N; i++ {
			c.Wait(1)
		}
	})
	b.ResetTimer()
	if _, err := k.RunUntilIdle(); err != nil {
		b.Fatal(err)
	}
}

// The model-level micro-benchmarks delegate to internal/benches — the
// same drivers cmd/pimbench records into BENCH_<n>.json, so the workload
// behind each trajectory name cannot fork.

func BenchmarkKernelHold(b *testing.B)      { benches.KernelHold(b) }
func BenchmarkKernelHoldFloat(b *testing.B) { benches.KernelHoldFloat(b) }
func BenchmarkMM1Simulation(b *testing.B)   { benches.MM1Simulation(b) }
func BenchmarkHostPIMSimulate(b *testing.B) { benches.HostPIMSimulate(b) }
func BenchmarkParcelSysRun(b *testing.B)    { benches.ParcelSysRun(b) }
func BenchmarkSimParcel1K(b *testing.B)     { benches.SimParcel1K(b) }
func BenchmarkSimParcelPar(b *testing.B)    { benches.SimParcelPar(b) }
func BenchmarkMachineGUPS(b *testing.B)     { benches.MachineGUPS(b) }
func BenchmarkMachineGUPS256(b *testing.B)  { benches.MachineGUPS256(b) }
func BenchmarkMachineGUPSPar(b *testing.B)  { benches.MachineGUPSPar(b) }
func BenchmarkMachineDecode(b *testing.B)   { benches.MachineDecode(b) }
func BenchmarkMachineDRAM(b *testing.B)     { benches.MachineDRAM(b) }
func BenchmarkMachineDRAMPar(b *testing.B)  { benches.MachineDRAMPar(b) }

func BenchmarkMachineFaultTreeSum(b *testing.B) { benches.MachineFaultTreeSum(b) }

func BenchmarkServeSpecDecode(b *testing.B) { benches.ServeSpecDecode(b) }
func BenchmarkServeRoundTrip(b *testing.B)  { benches.ServeRoundTrip(b) }
