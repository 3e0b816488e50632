package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// fastArgs skips the artifact suite and micro-benchmarks so the CLI
// plumbing (snapshot naming, JSON shape, the gate) tests in milliseconds.
func fastArgs(extra ...string) []string {
	return append([]string{"-suite=false", "-micros=false"}, extra...)
}

func TestSnapshotNamingAndShape(t *testing.T) {
	dir := t.TempDir()
	var out bytes.Buffer
	if err := run(fastArgs("-dir", dir), &out); err != nil {
		t.Fatal(err)
	}
	first := filepath.Join(dir, "BENCH_1.json")
	if _, err := os.Stat(first); err != nil {
		t.Fatalf("first snapshot not at BENCH_1.json: %v", err)
	}
	// The next run appends BENCH_2.json.
	if err := run(fastArgs("-dir", dir), &out); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(filepath.Join(dir, "BENCH_2.json")); err != nil {
		t.Fatalf("second snapshot not at BENCH_2.json: %v", err)
	}
	s, err := readSnapshot(first)
	if err != nil {
		t.Fatal(err)
	}
	if s.Schema != 1 || s.GOOS == "" || s.GOARCH == "" || s.GoVersion == "" {
		t.Fatalf("snapshot missing identity fields: %+v", s)
	}
}

func TestExplicitOutputPath(t *testing.T) {
	path := filepath.Join(t.TempDir(), "current.json")
	var out bytes.Buffer
	if err := run(fastArgs("-o", path), &out); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(path); err != nil {
		t.Fatal(err)
	}
}

func TestRegressionGate(t *testing.T) {
	dir := t.TempDir()
	base := filepath.Join(dir, "base.json")
	if err := writeSnapshot(base, Snapshot{Schema: 1, GitSHA: "base", SuiteWallClockSec: 10}); err != nil {
		t.Fatal(err)
	}

	// A faster current run passes the gate.
	fast := Snapshot{Schema: 1, SuiteWallClockSec: 9}
	var out bytes.Buffer
	b, err := readSnapshot(base)
	if err != nil {
		t.Fatal(err)
	}
	if err := compare(&out, b, fast, 0.25); err != nil {
		t.Fatalf("faster run failed the gate: %v", err)
	}

	// A >25% slower run fails it.
	slow := Snapshot{Schema: 1, SuiteWallClockSec: 13}
	if err := compare(&out, b, slow, 0.25); err == nil {
		t.Fatal("30% regression passed the 25% gate")
	} else if !strings.Contains(err.Error(), "regressed") {
		t.Fatalf("unexpected gate error: %v", err)
	}

	// With calibration on both sides, the gate is hardware-normalized: a
	// run twice as slow on a machine twice as slow is not a regression...
	calBase := Snapshot{Schema: 1, SuiteWallClockSec: 10, CalibrationSec: 1}
	slowHost := Snapshot{Schema: 1, SuiteWallClockSec: 20, CalibrationSec: 2}
	if err := compare(&out, calBase, slowHost, 0.25); err != nil {
		t.Fatalf("hardware-normalized gate tripped on a slower host: %v", err)
	}
	// ...while more work at equal calibration still is.
	moreWork := Snapshot{Schema: 1, SuiteWallClockSec: 13, CalibrationSec: 1}
	if err := compare(&out, calBase, moreWork, 0.25); err == nil {
		t.Fatal("calibrated 30% regression passed the 25% gate")
	}

	// A toolchain mismatch downgrades the gate to informational: codegen
	// differences are not code regressions.
	otherGo := Snapshot{Schema: 1, SuiteWallClockSec: 20, CalibrationSec: 1, GoVersion: "go1.99"}
	out.Reset()
	if err := compare(&out, calBase, otherGo, 0.25); err != nil {
		t.Fatalf("gate tripped across toolchains: %v", err)
	}
	if !strings.Contains(out.String(), "toolchain mismatch") {
		t.Fatalf("expected toolchain-mismatch notice, got:\n%s", out.String())
	}

	// End to end through the CLI: a no-suite run has no wall-clock, so the
	// gate is skipped rather than tripped.
	if err := run(fastArgs("-o", filepath.Join(dir, "cur.json"), "-against", base), &out); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "skipping the gate") {
		t.Fatalf("expected gate skip notice, got:\n%s", out.String())
	}
}

func TestMicroBenchNamesStable(t *testing.T) {
	// The trajectory is only comparable across snapshots if the names stay
	// put; pin them.
	want := []string{
		"kernel_schedule",
		"kernel_wait_resume",
		"kernel_handoff_chain",
		"kernel_activity_chain",
		"mm1_simulation",
		"hostpim_simulate",
		"parcelsys_run",
		"sim_parcel_1k",
		"sim_parcel_par",
		"machine_gups",
		"machine_gups_256",
		"machine_gups_par",
		"machine_decode",
		"machine_fault_treesum",
		"serve_decode",
		"serve_roundtrip",
		"kernel_hold",
		"kernel_hold_float",
		"machine_dram",
		"machine_dram_par",
	}
	if len(microBenchmarks) != len(want) {
		t.Fatalf("micro suite has %d benchmarks, want %d — extend this pin, never rename", len(microBenchmarks), len(want))
	}
	for i, m := range microBenchmarks {
		if m.name != want[i] {
			t.Fatalf("micro %d named %s, want %s", i, m.name, want[i])
		}
	}
}
