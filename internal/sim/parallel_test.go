package sim

// Tests of the partitioned kernel (parallel.go): byte-identical
// trajectories against the serial kernel for mixed Proc+Activity models
// across worker counts and partition assignments — the partitioned
// extension of TestActivityProcTraceEquivalence — plus the window
// mechanics (incremental Advance, infinite lookahead, lookahead
// violation surfacing, deadlock parity) and the queue empty-pop
// contract's kernel-facing consequences. Run under -race these tests
// also prove the window discipline keeps shard state single-threaded.

import (
	"errors"
	"fmt"
	"strconv"
	"strings"
	"sync"
	"testing"

	"repro/internal/rng"
)

// copyState is one replicated model copy: a resource contended by mixed
// proc/activity workers, and a ping counter bumped only by cross-copy
// deliveries (so it exercises the barrier merge when copies land on
// different partitions).
type copyState struct {
	g     int
	res   *Resource
	pings int
}

// bumpPing is the cross-copy delivery callback; it runs on the
// destination copy's kernel.
func bumpPing(arg any) { arg.(*copyState).pings++ }

// pinger sends a timed ping to the next copy between plan-driven waits.
// The ping delay never drops below the declared lookahead of 1.
type pinger struct {
	dst     *copyState
	dstPart int
	waits   []Time
	i       int
}

func (p *pinger) Step(a *ActCtx) {
	if p.i > 0 {
		a.Kernel().Send(p.dstPart, 1+Time(p.i%3), bumpPing, p.dst)
	}
	if p.i >= len(p.waits) {
		a.Exit()
		return
	}
	a.Wait(p.waits[p.i])
	p.i++
}

// buildCopy constructs copy g on kernel k: even-index workers are
// processes, odd-index workers are activities, all contending one FIFO
// resource.
func buildCopy(k *Kernel, g, capacity int, plans []workerPlan) *copyState {
	cs := &copyState{g: g}
	cs.res = NewResource(k, fmt.Sprintf("g%d/res", g), capacity, FIFO)
	for i := range plans {
		pl := &plans[i]
		name := fmt.Sprintf("g%d/w%d", g, i)
		if i%2 == 0 {
			r := cs.res
			k.Spawn(name, func(c *Context) {
				for j := range pl.waits {
					c.Wait(pl.waits[j])
					r.Acquire(c)
					c.Wait(pl.holds[j])
					r.Release(1)
				}
			})
		} else {
			k.SpawnActivity(name, &planWorker{pl: pl, r: cs.res})
		}
	}
	return cs
}

// parModelSpec is one generated workload: per-copy worker plans and ping
// waits, all pre-drawn so every run consumes identical numbers.
type parModelSpec struct {
	copies   int
	capacity int
	plans    [][]workerPlan
	pings    [][]Time
}

func makeParModel(seed uint64, copies, workers, steps, pings int) parModelSpec {
	spec := parModelSpec{copies: copies, capacity: 1 + int(seed%3)}
	st := rng.New(seed ^ 0x9e3779b97f4a7c15)
	for g := 0; g < copies; g++ {
		spec.plans = append(spec.plans, makePlans(seed+uint64(g)*7919, workers, steps))
		pw := make([]Time, pings)
		for i := range pw {
			pw[i] = 0.5 + st.Exp(2)
		}
		spec.pings = append(spec.pings, pw)
	}
	return spec
}

// buildParModel lays the spec's copies out across the given per-copy
// kernels (all the same kernel for a serial run) and wires the ping ring.
func buildParModel(spec parModelSpec, kfor func(g int) *Kernel, partOf func(g int) int) []*copyState {
	states := make([]*copyState, spec.copies)
	for g := 0; g < spec.copies; g++ {
		states[g] = buildCopy(kfor(g), g, spec.capacity, spec.plans[g])
	}
	for g := 0; g < spec.copies; g++ {
		dst := (g + 1) % spec.copies
		kfor(g).SpawnActivity(fmt.Sprintf("g%d/ping", g), &pinger{
			dst: states[dst], dstPart: partOf(dst), waits: spec.pings[g],
		})
	}
	return states
}

// parRunResult is everything a run exposes for the byte-identity check.
type parRunResult struct {
	traces [][]traceEvent // per partition (one entry for the serial run)
	grants []int64
	pings  []int
	now    Time
	seq    uint64
}

func runParModelSerial(spec parModelSpec) (parRunResult, error) {
	k := NewKernel()
	rec := &recTracer{}
	k.Tracer = rec
	states := buildParModel(spec, func(int) *Kernel { return k }, func(int) int { return 0 })
	now, err := k.RunUntilIdle()
	res := parRunResult{traces: [][]traceEvent{rec.events}, now: now, seq: k.seq}
	for _, cs := range states {
		res.grants = append(res.grants, cs.res.Grants())
		res.pings = append(res.pings, cs.pings)
	}
	return res, err
}

func runParModelPartitioned(spec parModelSpec, parts, workers int, assign func(g int) int) (parRunResult, error) {
	pk := NewParKernel(parts, workers, 1)
	recs := make([]*recTracer, parts)
	for i := 0; i < parts; i++ {
		recs[i] = &recTracer{}
		pk.Part(i).Tracer = recs[i]
	}
	states := buildParModel(spec, func(g int) *Kernel { return pk.Part(assign(g)) }, assign)
	now, err := pk.RunUntilIdle()
	// Shards draw setup and between-window seqs from the shared counter
	// (including the single-partition case, which bypasses the window
	// machinery entirely), so pk.seq is the run's final schedule counter.
	res := parRunResult{now: now, seq: pk.seq}
	for _, r := range recs {
		res.traces = append(res.traces, r.events)
	}
	for _, cs := range states {
		res.grants = append(res.grants, cs.res.Grants())
		res.pings = append(res.pings, cs.pings)
	}
	return res, err
}

// copyOfTrack extracts the copy index from a "g<N>/..." track name.
func copyOfTrack(track string) int {
	rest := strings.TrimPrefix(track, "g")
	i := strings.IndexByte(rest, '/')
	g, err := strconv.Atoi(rest[:i])
	if err != nil {
		panic("unparseable track " + track)
	}
	return g
}

// filterTrace restricts a serial trace to the copies a partition owns.
func filterTrace(events []traceEvent, parts int, assign func(g int) int, part int) []traceEvent {
	out := []traceEvent{}
	for _, e := range events {
		if assign(copyOfTrack(e.track)) == part {
			out = append(out, e)
		}
	}
	return out
}

// parAssignments is the partition-assignment corpus for model copies:
// contiguous blocks and strided round-robin.
func parAssignments(copies, parts int) map[string]func(g int) int {
	return map[string]func(g int) int{
		"contig":  func(g int) int { return g * parts / copies },
		"strided": func(g int) int { return g % parts },
	}
}

// TestParKernelTraceEquivalence is the partitioned extension of
// TestActivityProcTraceEquivalence: the same mixed Proc+Activity model,
// replicated and wired into a cross-partition ping ring, produces the
// serial kernel's exact trajectory — per-partition traces equal to the
// serial trace restricted to each partition's copies, identical grant
// and ping counts, identical final time, and an identical final value of
// the schedule counter (the sharpest witness that the barrier's replay
// renumbering reproduced every serial sequence number) — for every
// tested partition count, worker count, and assignment function.
func TestParKernelTraceEquivalence(t *testing.T) {
	const copies = 8
	for _, seed := range []uint64{1, 2, 3, 4, 5} {
		spec := makeParModel(seed, copies, 4, 6, 10)
		want, err := runParModelSerial(spec)
		if err != nil {
			t.Fatalf("seed %d: serial run: %v", seed, err)
		}
		for _, parts := range []int{1, 2, 4, 7} {
			for aname, assign := range parAssignments(copies, parts) {
				for _, workers := range []int{1, 2, parts} {
					name := fmt.Sprintf("seed%d/p%d/%s/w%d", seed, parts, aname, workers)
					t.Run(name, func(t *testing.T) {
						got, err := runParModelPartitioned(spec, parts, workers, assign)
						if err != nil {
							t.Fatal(err)
						}
						if got.now != want.now {
							t.Fatalf("final time %g, serial %g", got.now, want.now)
						}
						if got.seq != want.seq {
							t.Fatalf("final schedule counter %d, serial %d", got.seq, want.seq)
						}
						for g := 0; g < copies; g++ {
							if got.grants[g] != want.grants[g] {
								t.Fatalf("copy %d grants %d, serial %d", g, got.grants[g], want.grants[g])
							}
							if got.pings[g] != want.pings[g] {
								t.Fatalf("copy %d pings %d, serial %d", g, got.pings[g], want.pings[g])
							}
						}
						for p := 0; p < parts; p++ {
							ref := filterTrace(want.traces[0], parts, assign, p)
							if !tracesEqual(got.traces[p], ref) {
								t.Fatalf("partition %d trace diverges from serial restriction (%d vs %d events)",
									p, len(got.traces[p]), len(ref))
							}
						}
					})
				}
			}
		}
	}
}

// TestParKernelConcurrentRuns: partitioned runs on several goroutines at
// once, of different shard counts, each match the serial run. They share
// the pooled replay scratch — taken when a run's workers start, returned
// by Close, regrown for a wider run — so this is the race detector's view
// of the pool, and of a scratch handed from one run to the next.
func TestParKernelConcurrentRuns(t *testing.T) {
	const copies = 8
	spec := makeParModel(9, copies, 4, 6, 10)
	want, err := runParModelSerial(spec)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for i, parts := range []int{2, 4, 7, 3, 2, 7} {
		wg.Add(1)
		go func(i, parts int) {
			defer wg.Done()
			for rep := 0; rep < 3; rep++ {
				got, err := runParModelPartitioned(spec, parts, 2, func(g int) int { return g % parts })
				if err != nil {
					t.Errorf("run %d (p%d): %v", i, parts, err)
					return
				}
				if got.now != want.now || got.seq != want.seq {
					t.Errorf("run %d (p%d): final time %g seq %d, serial %g %d",
						i, parts, got.now, got.seq, want.now, want.seq)
					return
				}
			}
		}(i, parts)
	}
	wg.Wait()
}

// TestParKernelAdvanceIncremental: driving the partitioned run through
// repeated Advance windows (with an explicit Close) reaches the same
// state as one big Advance and as the serial kernel.
func TestParKernelAdvanceIncremental(t *testing.T) {
	spec := makeParModel(11, 6, 3, 5, 8)
	assign := func(g int) int { return g % 3 }

	run := func(steps []Time) (int, Time) {
		pk := NewParKernel(3, 3, 1)
		states := buildParModel(spec, func(g int) *Kernel { return pk.Part(assign(g)) }, assign)
		for _, until := range steps {
			if err := pk.Advance(until); err != nil {
				t.Fatal(err)
			}
			if pk.Now() != until {
				t.Fatalf("Now = %g after Advance(%g)", pk.Now(), until)
			}
		}
		pk.Close()
		total := 0
		for _, cs := range states {
			total += cs.pings
		}
		return total, pk.Now()
	}

	var chunks []Time
	for u := Time(4); u <= 60; u += 4 {
		chunks = append(chunks, u)
	}
	gotPings, gotNow := run(chunks)
	wantPings, wantNow := run([]Time{60})
	if gotPings != wantPings || gotNow != wantNow {
		t.Fatalf("incremental Advance: %d pings at %g, one-shot: %d pings at %g",
			gotPings, gotNow, wantPings, wantNow)
	}
}

// TestParKernelInfiniteLookahead: partitions that never communicate may
// declare an infinite lookahead — the run collapses into one window and
// still matches the serial kernel exactly.
func TestParKernelInfiniteLookahead(t *testing.T) {
	spec := makeParModel(21, 6, 4, 6, 0)
	spec.pings = make([][]Time, spec.copies) // no cross traffic at all

	sk := NewKernel()
	serialStates := make([]*copyState, spec.copies)
	for g := 0; g < spec.copies; g++ {
		serialStates[g] = buildCopy(sk, g, spec.capacity, spec.plans[g])
	}
	wantNow, err := sk.RunUntilIdle()
	if err != nil {
		t.Fatal(err)
	}

	pk := NewParKernel(4, 4, InfLookahead())
	assign := func(g int) int { return g % 4 }
	states := make([]*copyState, spec.copies)
	for g := 0; g < spec.copies; g++ {
		states[g] = buildCopy(pk.Part(assign(g)), g, spec.capacity, spec.plans[g])
	}
	gotNow, err := pk.RunUntilIdle()
	if err != nil {
		t.Fatal(err)
	}
	if gotNow != wantNow {
		t.Fatalf("final time %g, serial %g", gotNow, wantNow)
	}
	for g := range states {
		if states[g].res.Grants() != serialStates[g].res.Grants() {
			t.Fatalf("copy %d grants %d, serial %d", g, states[g].res.Grants(), serialStates[g].res.Grants())
		}
	}
}

// TestParKernelSendLookaheadViolation: a cross-partition Send below the
// declared lookahead is a model bug; it surfaces as the run's error, not
// a crash, and names both partitions.
func TestParKernelSendLookaheadViolation(t *testing.T) {
	pk := NewParKernel(2, 2, 5)
	k1 := pk.Part(1)
	k1.Schedule(1, func() {
		k1.Send(0, 2, func(any) {}, nil) // delay 2 < lookahead 5
	})
	_, err := pk.RunUntilIdle()
	if err == nil || !strings.Contains(err.Error(), "below declared lookahead") {
		t.Fatalf("err = %v, want lookahead violation", err)
	}
}

// TestParKernelDeadlockParity: a starved process on one shard reports
// ErrDeadlock exactly as the serial kernel does.
func TestParKernelDeadlockParity(t *testing.T) {
	build := func(k *Kernel) {
		s := NewStore[int](k, "empty")
		k.Spawn("starved", func(c *Context) { s.Get(c) })
	}
	sk := NewKernel()
	build(sk)
	if _, err := sk.RunUntilIdle(); !errors.Is(err, ErrDeadlock) {
		t.Fatalf("serial err = %v, want ErrDeadlock", err)
	}
	pk := NewParKernel(3, 2, 1)
	build(pk.Part(1))
	if _, err := pk.RunUntilIdle(); !errors.Is(err, ErrDeadlock) {
		t.Fatalf("partitioned err = %v, want ErrDeadlock", err)
	}
}

// TestParKernelSetupSend: cross-partition Sends made while the run is
// single-threaded (model setup, between Advance windows) deliver
// directly with exact sequence numbers.
func TestParKernelSetupSend(t *testing.T) {
	pk := NewParKernel(2, 2, 1)
	var got []string
	pk.Part(0).Send(1, 3, func(arg any) { got = append(got, arg.(string)) }, "setup")
	if err := pk.Advance(10); err != nil {
		t.Fatal(err)
	}
	pk.Part(1).Send(0, 2, func(arg any) { got = append(got, arg.(string)) }, "between")
	if err := pk.Advance(20); err != nil {
		t.Fatal(err)
	}
	pk.Close()
	if len(got) != 2 || got[0] != "setup" || got[1] != "between" {
		t.Fatalf("deliveries = %v", got)
	}
}
