package sim

import (
	"math"
	"testing"

	"repro/internal/rng"
)

// stage is one straight-line piece of a script activity. It issues at
// most one wait and reports whether the script moves on to the next
// stage; a GetAct that registered reports false, so the resumed script
// repeats the stage to collect its delivery.
type stage func(a *ActCtx) bool

// script is a test activity written as a list of stages: it runs stages
// inline until one leaves a resumption pending, continues from there when
// resumed, and exits after the last. It lets a test spell a transaction
// as sequential code without a hand-rolled state machine.
type script struct {
	stages []stage
	pc     int
}

func (s *script) Step(a *ActCtx) {
	for s.pc < len(s.stages) {
		if s.stages[s.pc](a) {
			s.pc++
		}
		if a.pending {
			return
		}
	}
	a.Exit()
}

// spawnScript starts a script activity at absolute time t.
func spawnScript(k *Kernel, t Time, name string, stages ...stage) *ActCtx {
	return k.SpawnActivityAt(t, name, &script{stages: stages})
}

func do(f func(a *ActCtx)) stage { return func(a *ActCtx) bool { f(a); return true } }

func wait(d Time) stage { return do(func(a *ActCtx) { a.Wait(d) }) }

func acquire(r *Resource, n int, prio float64) stage {
	return do(func(a *ActCtx) { r.AcquireAct(a, n, prio) })
}

func release(r *Resource, n int) stage { return do(func(*ActCtx) { r.Release(n) }) }

func put[T any](s *Store[T], v T) stage { return do(func(a *ActCtx) { s.PutAct(a, v) }) }

func get[T any](s *Store[T], got func(T)) stage {
	return func(a *ActCtx) bool {
		v, ok := s.GetAct(a)
		if ok && got != nil {
			got(v)
		}
		return ok
	}
}

func TestScheduleOrdering(t *testing.T) {
	k := NewKernel()
	var order []int
	k.Schedule(5, func() { order = append(order, 2) })
	k.Schedule(1, func() { order = append(order, 1) })
	k.Schedule(5, func() { order = append(order, 3) }) // same time: schedule order
	if err := k.Run(10); err != nil {
		t.Fatal(err)
	}
	want := []int{1, 2, 3}
	if len(order) != len(want) {
		t.Fatalf("got %v, want %v", order, want)
	}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("got %v, want %v", order, want)
		}
	}
	if k.Now() != 10 {
		t.Errorf("Now() = %g, want 10", k.Now())
	}
}

func TestScheduleAtPastPanics(t *testing.T) {
	k := NewKernel()
	k.Schedule(5, func() {})
	if err := k.Run(5); err != nil {
		t.Fatal(err)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic scheduling in the past")
		}
	}()
	k.ScheduleAt(1, func() {})
}

func TestTimerCancel(t *testing.T) {
	k := NewKernel()
	fired := false
	tm := k.Schedule(5, func() { fired = true })
	if !tm.Cancel() {
		t.Fatal("first Cancel should succeed")
	}
	if tm.Cancel() {
		t.Fatal("second Cancel should report false")
	}
	if err := k.Run(10); err != nil {
		t.Fatal(err)
	}
	if fired {
		t.Fatal("canceled timer fired")
	}
}

func TestProcessWait(t *testing.T) {
	k := NewKernel()
	var times []Time
	mark := do(func(a *ActCtx) { times = append(times, a.Now()) })
	spawnScript(k, 0, "p", mark, wait(3), mark, wait(4), mark)
	if err := k.Run(100); err != nil {
		t.Fatal(err)
	}
	want := []Time{0, 3, 7}
	if len(times) != len(want) {
		t.Fatalf("times = %v, want %v", times, want)
	}
	for i := range want {
		if times[i] != want[i] {
			t.Fatalf("times = %v, want %v", times, want)
		}
	}
}

func TestSpawnActivityAt(t *testing.T) {
	k := NewKernel()
	var start Time = -1
	spawnScript(k, 42, "late", do(func(a *ActCtx) { start = a.Now() }))
	if err := k.Run(100); err != nil {
		t.Fatal(err)
	}
	if start != 42 {
		t.Errorf("activity started at %g, want 42", start)
	}
}

func TestRunKillsBlockedProcesses(t *testing.T) {
	k := NewKernel()
	reached := false
	spawnScript(k, 0, "sleeper", wait(1000), do(func(*ActCtx) {
		reached = true // must never run: the run ends at t=10
	}))
	if err := k.Run(10); err != nil {
		t.Fatal(err)
	}
	if reached {
		t.Fatal("activity continued past end of run")
	}
	if k.LiveActivities() != 0 {
		t.Fatalf("LiveActivities = %d after Run", k.LiveActivities())
	}
}

func TestProcessPanicPropagates(t *testing.T) {
	k := NewKernel()
	spawnScript(k, 0, "bad", wait(1), do(func(*ActCtx) { panic("model bug") }))
	err := k.Run(10)
	if err == nil {
		t.Fatal("expected error from panicking activity")
	}
}

func TestRunUntilIdle(t *testing.T) {
	k := NewKernel()
	var end Time
	spawnScript(k, 0, "p", wait(7), do(func(a *ActCtx) { end = a.Now() }))
	final, err := k.RunUntilIdle()
	if err != nil {
		t.Fatal(err)
	}
	if end != 7 || final != 7 {
		t.Errorf("end=%g final=%g, want 7", end, final)
	}
}

func TestRunUntilIdleDeadlock(t *testing.T) {
	k := NewKernel()
	sig := NewSignal(k, "never")
	spawnScript(k, 0, "stuck", do(func(a *ActCtx) { sig.WaitAct(a) }))
	_, err := k.RunUntilIdle()
	if err == nil {
		t.Fatal("expected deadlock error")
	}
}

func TestResourceMutualExclusion(t *testing.T) {
	k := NewKernel()
	r := NewResource(k, "cpu", 1, FIFO)
	var maxConc, conc int
	for i := 0; i < 5; i++ {
		spawnScript(k, 0, "worker",
			acquire(r, 1, 0),
			do(func(*ActCtx) {
				conc++
				if conc > maxConc {
					maxConc = conc
				}
			}),
			wait(2),
			do(func(*ActCtx) { conc-- }),
			release(r, 1))
	}
	if _, err := k.RunUntilIdle(); err != nil {
		t.Fatal(err)
	}
	if maxConc != 1 {
		t.Errorf("max concurrency %d on capacity-1 resource", maxConc)
	}
	if r.Grants() != 5 {
		t.Errorf("grants = %d, want 5", r.Grants())
	}
}

// orderedHolders spawns n activities, the i-th arriving at time i, that
// each take r, record their index, hold for 10, and release.
func orderedHolders(k *Kernel, r *Resource, n int, order *[]int) {
	for i := 0; i < n; i++ {
		i := i
		spawnScript(k, Time(i), "w",
			acquire(r, 1, 0),
			do(func(*ActCtx) { *order = append(*order, i) }),
			wait(10),
			release(r, 1))
	}
}

func TestResourceFIFOOrder(t *testing.T) {
	k := NewKernel()
	r := NewResource(k, "cpu", 1, FIFO)
	var order []int
	orderedHolders(k, r, 4, &order)
	if _, err := k.RunUntilIdle(); err != nil {
		t.Fatal(err)
	}
	if len(order) != 4 {
		t.Fatalf("grants = %v, want 4", order)
	}
	for i := range order {
		if order[i] != i {
			t.Fatalf("FIFO order violated: %v", order)
		}
	}
}

func TestResourceLIFOOrder(t *testing.T) {
	k := NewKernel()
	r := NewResource(k, "cpu", 1, LIFO)
	var order []int
	orderedHolders(k, r, 4, &order)
	if _, err := k.RunUntilIdle(); err != nil {
		t.Fatal(err)
	}
	// First arrival (t=0) grabs the idle server; the rest queue and are
	// served newest-first: 0, 3, 2, 1.
	want := []int{0, 3, 2, 1}
	if len(order) != len(want) {
		t.Fatalf("LIFO order = %v, want %v", order, want)
	}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("LIFO order = %v, want %v", order, want)
		}
	}
}

func TestResourcePriorityOrder(t *testing.T) {
	k := NewKernel()
	r := NewResource(k, "cpu", 1, Priority)
	var order []int
	prios := []float64{3, 1, 2}
	for i := 0; i < 3; i++ {
		i := i
		spawnScript(k, Time(i)+1, "w",
			acquire(r, 1, prios[i]),
			do(func(*ActCtx) { order = append(order, i) }),
			wait(10),
			release(r, 1))
	}
	// A holder occupies the resource while the three contenders arrive.
	spawnScript(k, 0, "holder", acquire(r, 1, 0), wait(5), release(r, 1))
	if _, err := k.RunUntilIdle(); err != nil {
		t.Fatal(err)
	}
	want := []int{1, 2, 0} // priorities 1, 2, 3
	if len(order) != len(want) {
		t.Fatalf("priority order = %v, want %v", order, want)
	}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("priority order = %v, want %v", order, want)
		}
	}
}

func TestResourceNUnitGrants(t *testing.T) {
	k := NewKernel()
	r := NewResource(k, "mem", 4, FIFO)
	var events []string
	event := func(e string) stage {
		return do(func(*ActCtx) { events = append(events, e) })
	}
	spawnScript(k, 0, "big",
		acquire(r, 3, 0), event("big+"), wait(10), release(r, 3), event("big-"))
	// bigger must wait for all 4 units.
	spawnScript(k, 1, "bigger", acquire(r, 4, 0), event("bigger+"), release(r, 4))
	// 1 unit is free when small arrives, but it must not bypass the FIFO
	// head.
	spawnScript(k, 2, "small", acquire(r, 1, 0), event("small+"), release(r, 1))
	if _, err := k.RunUntilIdle(); err != nil {
		t.Fatal(err)
	}
	want := []string{"big+", "big-", "bigger+", "small+"}
	if len(events) != len(want) {
		t.Fatalf("events = %v", events)
	}
	for i := range want {
		if events[i] != want[i] {
			t.Fatalf("events = %v, want %v", events, want)
		}
	}
}

func TestTryAcquire(t *testing.T) {
	k := NewKernel()
	r := NewResource(k, "cpu", 1, FIFO)
	var got []bool
	k.Schedule(1, func() {
		got = append(got, r.TryAcquire(1)) // true
		got = append(got, r.TryAcquire(1)) // false: busy
		r.Release(1)
		got = append(got, r.TryAcquire(1)) // true again
		r.Release(1)
	})
	if _, err := k.RunUntilIdle(); err != nil {
		t.Fatal(err)
	}
	if len(got) != 3 || !got[0] || got[1] || !got[2] {
		t.Errorf("TryAcquire sequence = %v, want [true false true]", got)
	}
	// TryAcquire never jumps a queue: with a waiter registered it fails
	// even though the units it asks for are free.
	k2 := NewKernel()
	r2 := NewResource(k2, "mem", 2, FIFO)
	spawnScript(k2, 0, "big", acquire(r2, 1, 0), wait(10), release(r2, 1))
	spawnScript(k2, 1, "queued", acquire(r2, 2, 0), release(r2, 2))
	var jumped bool
	k2.Schedule(2, func() { jumped = r2.TryAcquire(1) })
	if _, err := k2.RunUntilIdle(); err != nil {
		t.Fatal(err)
	}
	if jumped {
		t.Error("TryAcquire bypassed a queued request")
	}
}

func TestResourceUtilization(t *testing.T) {
	k := NewKernel()
	r := NewResource(k, "cpu", 1, FIFO)
	spawnScript(k, 0, "p", acquire(r, 1, 0), wait(30), release(r, 1))
	if err := k.Run(100); err != nil {
		t.Fatal(err)
	}
	if u := r.Utilization(k.Now()); math.Abs(u-0.3) > 1e-12 {
		t.Errorf("utilization = %g, want 0.3", u)
	}
}

func TestStoreFIFO(t *testing.T) {
	k := NewKernel()
	s := NewStore[int](k, "box")
	var got []int
	collect := func(v int) { got = append(got, v) }
	spawnScript(k, 0, "consumer", get(s, collect), get(s, collect), get(s, collect))
	spawnScript(k, 0, "producer", wait(1), put(s, 1), wait(1), put(s, 2), wait(1), put(s, 3))
	if _, err := k.RunUntilIdle(); err != nil {
		t.Fatal(err)
	}
	if len(got) != 3 {
		t.Fatalf("got %v", got)
	}
	for i, v := range []int{1, 2, 3} {
		if got[i] != v {
			t.Fatalf("got %v", got)
		}
	}
}

func TestStoreGetBlocksUntilPut(t *testing.T) {
	k := NewKernel()
	s := NewStore[string](k, "box")
	var when Time
	spawnScript(k, 0, "consumer", get(s, nil), do(func(a *ActCtx) { when = a.Now() }))
	spawnScript(k, 9, "producer", put(s, "x"))
	if _, err := k.RunUntilIdle(); err != nil {
		t.Fatal(err)
	}
	if when != 9 {
		t.Errorf("GetAct delivered at %g, want 9", when)
	}
	if w := s.GetWait.Max(); w != 9 {
		t.Errorf("recorded get wait = %g, want 9", w)
	}
}

func TestBoundedStorePutBlocks(t *testing.T) {
	k := NewKernel()
	s := NewBoundedStore[int](k, "box", 2)
	var putDone Time = -1
	spawnScript(k, 0, "producer",
		put(s, 1), put(s, 2),
		put(s, 3), // waits until a get
		do(func(a *ActCtx) { putDone = a.Now() }))
	spawnScript(k, 5, "consumer", get(s, nil))
	if _, err := k.RunUntilIdle(); err != nil {
		t.Fatal(err)
	}
	if putDone != 5 {
		t.Errorf("third put completed at %g, want 5", putDone)
	}
	if s.Size() != 2 {
		t.Errorf("store size = %d, want 2", s.Size())
	}
}

func TestTryPutTryGet(t *testing.T) {
	k := NewKernel()
	s := NewBoundedStore[int](k, "box", 1)
	k.Schedule(1, func() {
		if !s.TryPut(7) {
			t.Error("TryPut into empty bounded store failed")
		}
		if s.TryPut(8) {
			t.Error("TryPut into full store succeeded")
		}
		v, ok := s.TryGet()
		if !ok || v != 7 {
			t.Errorf("TryGet = (%d, %v), want (7, true)", v, ok)
		}
		if _, ok := s.TryGet(); ok {
			t.Error("TryGet from empty store succeeded")
		}
	})
	if _, err := k.RunUntilIdle(); err != nil {
		t.Fatal(err)
	}
}

func TestSignalBroadcast(t *testing.T) {
	k := NewKernel()
	sig := NewSignal(k, "go")
	var woke []Time
	for i := 0; i < 3; i++ {
		spawnScript(k, 0, "waiter",
			do(func(a *ActCtx) { sig.WaitAct(a) }),
			do(func(a *ActCtx) { woke = append(woke, a.Now()) }))
	}
	k.Schedule(4, sig.Trigger)
	if _, err := k.RunUntilIdle(); err != nil {
		t.Fatal(err)
	}
	if len(woke) != 3 {
		t.Fatalf("woke %d waiters, want 3", len(woke))
	}
	for _, w := range woke {
		if w != 4 {
			t.Errorf("waiter woke at %g, want 4", w)
		}
	}
	// WaitAct after the trigger continues inline.
	k2 := NewKernel()
	sig2 := NewSignal(k2, "done")
	sig2.Trigger()
	var at Time = -1
	inline := false
	spawnScript(k2, 0, "late", do(func(a *ActCtx) {
		inline = sig2.WaitAct(a)
		at = a.Now()
	}))
	if _, err := k2.RunUntilIdle(); err != nil {
		t.Fatal(err)
	}
	if !inline || at != 0 {
		t.Errorf("late waiter: inline %v at %g, want true at 0", inline, at)
	}
}

func TestWaitGroupJoin(t *testing.T) {
	k := NewKernel()
	wg := NewWaitGroup(k, "join", 3)
	var joined Time = -1
	for i := 1; i <= 3; i++ {
		spawnScript(k, 0, "w", wait(Time(i*10)), do(func(*ActCtx) { wg.Done() }))
	}
	spawnScript(k, 0, "joiner",
		do(func(a *ActCtx) { wg.WaitAct(a) }),
		do(func(a *ActCtx) { joined = a.Now() }))
	if _, err := k.RunUntilIdle(); err != nil {
		t.Fatal(err)
	}
	if joined != 30 {
		t.Errorf("join completed at %g, want 30", joined)
	}
}

func TestSleepInterrupt(t *testing.T) {
	k := NewKernel()
	interrupted := false
	var when Time
	p := spawnScript(k, 0, "sleeper",
		do(func(a *ActCtx) { a.Sleep(100) }),
		do(func(a *ActCtx) {
			interrupted = a.Interrupted()
			when = a.Now()
		}))
	k.Schedule(5, func() {
		if !k.InterruptActivity(p) {
			t.Error("InterruptActivity reported no delivery")
		}
	})
	if _, err := k.RunUntilIdle(); err != nil {
		t.Fatal(err)
	}
	if !interrupted {
		t.Error("Sleep resumed without the interrupted flag")
	}
	if when != 5 {
		t.Errorf("interrupted at %g, want 5", when)
	}
}

func TestSleepUninterrupted(t *testing.T) {
	k := NewKernel()
	interrupted := true
	var when Time
	spawnScript(k, 0, "sleeper",
		do(func(a *ActCtx) { a.Sleep(4) }),
		do(func(a *ActCtx) {
			interrupted = a.Interrupted()
			when = a.Now()
		}))
	if _, err := k.RunUntilIdle(); err != nil {
		t.Fatal(err)
	}
	if interrupted || when != 4 {
		t.Errorf("Sleep resumed at %g interrupted=%v, want 4 false", when, interrupted)
	}
}

func TestInterruptNonBlockedIsNoop(t *testing.T) {
	k := NewKernel()
	p := spawnScript(k, 0, "runner", wait(10))
	delivered := true
	k.Schedule(1, func() {
		delivered = k.InterruptActivity(p) // p is in Wait, not Sleep
	})
	if _, err := k.RunUntilIdle(); err != nil {
		t.Fatal(err)
	}
	if delivered {
		t.Error("Interrupt on uninterruptible Wait reported delivery")
	}
}

func TestDeterminism(t *testing.T) {
	run := func(seed uint64) []float64 {
		k := NewKernel()
		r := NewResource(k, "cpu", 2, FIFO)
		st := rng.New(seed)
		var finish []float64
		for i := 0; i < 50; i++ {
			spawnScript(k, 0, "job",
				do(func(a *ActCtx) { a.Wait(st.Exp(3)) }),
				acquire(r, 1, 0),
				do(func(a *ActCtx) { a.Wait(st.Exp(5)) }),
				release(r, 1),
				do(func(a *ActCtx) { finish = append(finish, a.Now()) }))
		}
		if _, err := k.RunUntilIdle(); err != nil {
			t.Fatal(err)
		}
		return finish
	}
	a, b := run(12345), run(12345)
	if len(a) != len(b) {
		t.Fatalf("lengths differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("trajectory diverged at %d: %g vs %g", i, a[i], b[i])
		}
	}
	c := run(54321)
	same := true
	for i := range a {
		if i >= len(c) || a[i] != c[i] {
			same = false
			break
		}
	}
	if same && len(a) == len(c) {
		t.Error("different seeds produced identical trajectories")
	}
}

func TestYieldRunsSameTimeEvents(t *testing.T) {
	k := NewKernel()
	var order []string
	mark := func(s string) stage { return do(func(*ActCtx) { order = append(order, s) }) }
	spawnScript(k, 0, "a", mark("a1"), do(func(a *ActCtx) { a.Yield() }), mark("a2"))
	spawnScript(k, 0, "b", mark("b1"))
	if _, err := k.RunUntilIdle(); err != nil {
		t.Fatal(err)
	}
	want := []string{"a1", "b1", "a2"}
	if len(order) != len(want) {
		t.Fatalf("order = %v, want %v", order, want)
	}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order = %v, want %v", order, want)
		}
	}
}

func TestStopEndsRun(t *testing.T) {
	k := NewKernel()
	count := 0
	var tick func()
	tick = func() {
		count++
		if count == 5 {
			k.Stop()
			return
		}
		k.Schedule(1, tick)
	}
	k.Schedule(1, tick)
	if err := k.Run(1000); err != nil {
		t.Fatal(err)
	}
	if count != 5 {
		t.Errorf("count = %d, want 5", count)
	}
	if k.Now() != 5 {
		t.Errorf("Now = %g, want 5", k.Now())
	}
}

func TestNegativeWaitPanics(t *testing.T) {
	k := NewKernel()
	spawnScript(k, 0, "bad", wait(-1))
	if err := k.Run(1); err == nil {
		t.Fatal("expected error from negative Wait")
	}
}

func TestResourceQueueStats(t *testing.T) {
	k := NewKernel()
	r := NewResource(k, "cpu", 1, FIFO)
	// Two jobs: first holds [0,10], second arrives at 0 and waits 10.
	spawnScript(k, 0, "first", acquire(r, 1, 0), wait(10), release(r, 1))
	spawnScript(k, 0, "second", acquire(r, 1, 0), wait(10), release(r, 1))
	if _, err := k.RunUntilIdle(); err != nil {
		t.Fatal(err)
	}
	if w := r.WaitTime.Max(); math.Abs(w-10) > 1e-9 {
		t.Errorf("max wait = %g, want 10", w)
	}
	// Average queue length over [0,20]: one waiter during [0,10] = 0.5.
	if ql := r.QueueLen.Mean(k.Now()); math.Abs(ql-0.5) > 1e-9 {
		t.Errorf("mean queue length = %g, want 0.5", ql)
	}
}

func TestStaleTimerCannotCancelRecycledEvent(t *testing.T) {
	// After an event fires, its struct returns to the free list and may be
	// reused by the next Schedule. A Timer held across the firing must not
	// cancel the struct's next tenant.
	k := NewKernel()
	var fired []string
	tm := k.Schedule(1, func() { fired = append(fired, "a") })
	if _, err := k.RunUntilIdle(); err != nil {
		t.Fatal(err)
	}
	k.Schedule(1, func() { fired = append(fired, "b") })
	if tm.Cancel() {
		t.Error("stale Timer claimed to cancel a recycled event")
	}
	if _, err := k.RunUntilIdle(); err != nil {
		t.Fatal(err)
	}
	if len(fired) != 2 || fired[1] != "b" {
		t.Errorf("fired = %v, want [a b]", fired)
	}
}

func TestCanceledEventRecycledAndReused(t *testing.T) {
	// A canceled event is collected dead and recycled; subsequent
	// schedules reuse it and run normally.
	k := NewKernel()
	ran := 0
	tm := k.Schedule(1, func() { t.Error("canceled event ran") })
	if !tm.Cancel() {
		t.Fatal("cancel failed")
	}
	for i := 0; i < 100; i++ {
		k.Schedule(float64(i), func() { ran++ })
	}
	if _, err := k.RunUntilIdle(); err != nil {
		t.Fatal(err)
	}
	if ran != 100 {
		t.Errorf("ran = %d, want 100", ran)
	}
}

func TestNestedRunFromCallbackErrors(t *testing.T) {
	// Run/Advance from inside the simulation would clobber the active
	// drain window; it must surface as a run error, never hang.
	k := NewKernel()
	k.Schedule(1, func() { _ = k.Advance(50) })
	err := k.Run(10)
	if err == nil {
		t.Fatal("nested Advance from a callback did not error")
	}

	k2 := NewKernel()
	spawnScript(k2, 0, "p", wait(1), do(func(a *ActCtx) { _ = a.Kernel().Run(50) }))
	if err := k2.Run(10); err == nil {
		t.Fatal("nested Run from an activity did not error")
	}
}
