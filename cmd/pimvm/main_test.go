package main

import (
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func writeProgram(t *testing.T, src string) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "prog.pasm")
	if err := os.WriteFile(path, []byte(src), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

const countdown = `
main:
    addi r1, r0, 5
loop:
    addi r1, r1, -1
    bne r1, r0, loop
    print r1
    halt
`

func TestRunProgram(t *testing.T) {
	path := writeProgram(t, countdown)
	if err := run([]string{path}); err != nil {
		t.Fatal(err)
	}
}

func TestRunWithStats(t *testing.T) {
	path := writeProgram(t, countdown)
	if err := run([]string{"-stats", "-nodes", "2", path}); err != nil {
		t.Fatal(err)
	}
}

func TestStatsReportEngine(t *testing.T) {
	// -stats names the engine the run took and why it passed over a
	// faster one: the serial CLI streams OUT values, which pins the
	// per-cycle loop; -parallel drops the Output hook.
	for _, tc := range []struct {
		args []string
		want string
	}{
		{[]string{"-stats", "-builtin", "gups", "-nodes", "4"}, "engine: per-cycle (fallback: Output hook)"},
		{[]string{"-stats", "-builtin", "gups", "-nodes", "4", "-parallel", "2"}, "engine: parallel (fallback: none)"},
		{[]string{"-stats", "-builtin", "gups", "-nodes", "1", "-parallel", "2"}, "engine: windowed (fallback: Parallelism <= 1 or fewer than 2 nodes)"},
	} {
		if out := captureRun(t, tc.args); !strings.Contains(out, tc.want) {
			t.Errorf("%v: output lacks %q:\n%s", tc.args, tc.want, out)
		}
	}
}

func TestDisassemble(t *testing.T) {
	path := writeProgram(t, countdown)
	if err := run([]string{"-dis", path}); err != nil {
		t.Fatal(err)
	}
}

func TestMissingFile(t *testing.T) {
	if err := run([]string{"/nonexistent.pasm"}); err == nil {
		t.Fatal("missing file accepted")
	}
}

func TestBadEntry(t *testing.T) {
	path := writeProgram(t, countdown)
	if err := run([]string{"-entry", "nowhere", path}); err == nil {
		t.Fatal("bad entry label accepted")
	}
}

func TestAssemblyError(t *testing.T) {
	path := writeProgram(t, "main:\n bogus r1\n")
	if err := run([]string{path}); err == nil {
		t.Fatal("assembly error not surfaced")
	}
}

func TestCycleBudgetExceeded(t *testing.T) {
	path := writeProgram(t, "main:\n jmp main\n")
	if err := run([]string{"-max", "100", path}); err == nil {
		t.Fatal("livelock not reported")
	}
}

func TestNoArgs(t *testing.T) {
	if err := run(nil); err == nil {
		t.Fatal("missing program accepted")
	}
}

// captureRun runs the CLI with stdout captured and returns its output.
func captureRun(t *testing.T, args []string) string {
	t.Helper()
	old := os.Stdout
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	os.Stdout = w
	runErr := run(args)
	w.Close()
	os.Stdout = old
	out, err := io.ReadAll(r)
	if err != nil {
		t.Fatal(err)
	}
	if runErr != nil {
		t.Fatalf("run %v: %v", args, runErr)
	}
	return string(out)
}

func TestParallelFingerprintMatchesSerial(t *testing.T) {
	// The CLI face of the PDES determinism guarantee: the gups builtin
	// fingerprints identically on 1 and 4 workers, flat and hop-routed.
	for _, topo := range []string{"flat", "torus"} {
		base := []string{"-builtin", "gups", "-nodes", "16", "-threads", "2",
			"-topology", topo, "-latency", "20", "-fingerprint"}
		serial := captureRun(t, append([]string{"-parallel", "1"}, base...))
		par := captureRun(t, append([]string{"-parallel", "4"}, base...))
		if serial != par {
			t.Errorf("%s: output differs across -parallel:\nserial:\n%s\nparallel:\n%s", topo, serial, par)
		}
		if !strings.Contains(serial, "fingerprint=0x") {
			t.Errorf("%s: no fingerprint line in output:\n%s", topo, serial)
		}
	}
}

func TestParallelRejectsZeroWorkers(t *testing.T) {
	if err := run([]string{"-parallel", "0", "-builtin", "gups"}); err == nil {
		t.Fatal("-parallel 0 accepted")
	}
}
