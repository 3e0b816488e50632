// Package sim is a deterministic discrete-event simulation kernel with two
// execution modes sharing one event queue. It is the replacement for the
// commercial HyPerformix SES/Workbench tool the paper used.
//
// Process mode (Proc, Context): transactions are modeled as lightweight
// processes (goroutines) that advance simulated time by waiting, acquiring
// resources, and exchanging messages, while a single logical thread of
// control guarantees reproducible execution order. Any number of process
// goroutines may exist, but exactly one of them (or the controller that
// called Run) executes at any instant. The logical thread is handed
// directly from goroutine to goroutine: a parking process continues
// dispatching events itself, so a burst of same-window resumptions costs
// one channel handoff per process switch (and none at all when a process's
// next event resumes the process itself). Write models in this mode when
// straight-line control flow matters more than throughput: the model body
// reads like sequential code and may block anywhere.
//
// Activity mode (Activity, ActCtx): run-to-completion event handlers the
// kernel steps inline in its dispatch loop — zero goroutines, zero channel
// operations, zero stack switches. A switch between two activities costs an
// event-queue pop instead of a goroutine handoff (an order of magnitude
// cheaper), at the price of event-oriented style: the model is an explicit
// state machine and every blocking primitive becomes a "try or register"
// call (AcquireAct, GetAct, WaitAct). Write hot simulation loops in this mode;
// the repository's heavy studies (hostpim, parcelsys, the activity-mode
// queueing stations) all do.
//
// The two modes coexist on the same kernel: events carry either a callback,
// a process resumption, or an activity step, and the single (t, seq) order
// covers all three, so a mixed model is exactly as deterministic as a pure
// one. The same seed and model always produce the same trajectory; ties in
// event time are broken by schedule order.
//
// Pending events wait in a calendar queue (queue.go): a ring of FIFO
// buckets, one per whole time unit, with a 4-ary heap as the overflow for
// whatever the ring cannot take in order. Models that schedule at integer
// times — all of this repository's — push and pop in constant time at any
// queue depth; queues under a few dozen events are the bare heap.
//
// For big models, ParKernel partitions a run across shard kernels advanced
// concurrently in conservative time windows, with cross-shard interactions
// routed through Kernel.Send under a declared lookahead. Barrier-time
// replay renumbering keeps the trajectory byte-identical to one serial
// kernel running the whole model, for every shard count and partition
// assignment — parallelism is an execution strategy, never a semantic.
package sim

import (
	"errors"
	"fmt"
)

// Time is simulated time. The models in this repository measure time in HWP
// clock cycles (the paper normalizes all times to heavyweight-processor
// cycles), but the kernel itself is unit-agnostic.
type Time = float64

// ErrDeadlock is returned by RunUntilIdle when no events remain but live
// processes are still blocked.
var ErrDeadlock = errors.New("sim: deadlock: no scheduled events but processes remain blocked")

// event is a scheduled callback, process resumption, or activity step.
// Events are recycled through the kernel's free list once fired or
// collected dead, so steady-state scheduling does not allocate; gen
// distinguishes incarnations so a stale Timer cannot cancel the struct's
// next tenant, and its low bit marks a canceled event (folding the flag
// in keeps the struct at 80 bytes with the queue link). Resumptions carry
// the process or activity directly instead of a closure, keeping the
// kernel's hottest paths — Wait and blocking-wakeup events in both
// execution modes — entirely allocation-free; ScheduleArg callbacks
// likewise carry their argument out of line so one function value can
// serve many deliveries.
type event struct {
	t    Time
	seq  uint64  // tie-breaker: schedule order
	next *event  // the next event in its calQueue bucket
	proc *Proc   // when non-nil, resume this process
	act  *ActCtx // when non-nil, step this activity
	fn   func()
	afn  func(any) // when non-nil, call afn(arg)
	arg  any
	gen  uint64 // 2 × incarnation, +1 once canceled; see dead and recycle
}

// dead reports whether the event was canceled.
func (ev *event) dead() bool { return ev.gen&1 != 0 }

// dispatchState is the outcome of one dispatch burst (see Kernel.dispatch).
type dispatchState int

const (
	// resumedSelf: the next due event resumes the dispatching process
	// itself — it continues immediately, with no channel traffic at all.
	resumedSelf dispatchState = iota
	// handedOff: another process now owns the logical thread; the caller
	// must wait for it to come back (own wake channel, or yield for the
	// controller) or simply exit (a finished process).
	handedOff
	// exhausted: nothing is due (bound reached, queue empty, or the run
	// stopped); the logical thread returns to the controller.
	exhausted
)

// Kernel is a discrete-event simulation instance. Create one with NewKernel;
// the zero value is not usable.
type Kernel struct {
	now Time
	// events is held by value, one load closer to the dispatch loop than a
	// pointer; a partitioned run's partitionedQueue points at each shard's
	// (see parallel.go).
	events calQueue
	free   []*event // recycled events (see event)
	seq    uint64

	// par is non-nil when this kernel is one shard of a ParKernel; it
	// carries the shard's window state and cross-shard buffers.
	par *shardState

	// procs lists every spawned, not-yet-reaped process in id (== spawn)
	// order; done processes are swept lazily. live counts the non-done
	// ones, so the hot paths never touch a map.
	procs []*Proc
	live  int

	// acts is the activity roster (same sweep policy as procs); liveActs
	// counts the not-yet-exited ones, actsBlocked the subset registered in
	// a wait structure with no scheduled resumption (these count toward
	// deadlock detection exactly as blocked processes do).
	acts        []*ActCtx
	liveActs    int
	actsBlocked int

	yield  chan struct{} // logical thread -> controller handoff (cap 1)
	err    error         // first process panic, if any
	nextID int64

	// until/bounded frame the current drain window (set by Advance, Run,
	// and RunUntilIdle; read by every dispatcher). strict excludes events
	// at exactly `until` — the half-open [W, W+L) windows of a partitioned
	// run; serial drains are inclusive and leave it false.
	until   Time
	bounded bool
	strict  bool

	// Tracer, if non-nil, observes process state transitions. Used by the
	// trace package to build per-processor timelines.
	Tracer Tracer

	stopped  bool // Stop() requested
	draining bool // shutdown in progress: dispatch is suspended
	running  bool // a drain window is active: Run/Advance must not reenter
}

// Tracer receives process lifecycle callbacks. All callbacks run on the
// simulation's single logical thread.
type Tracer interface {
	// ProcState is called when process name enters the given informal state
	// ("start", "wait", "run", "done", ...) at simulated time t.
	ProcState(t Time, name string, state string)
}

// NewKernel returns an empty simulation at time 0.
func NewKernel() *Kernel {
	return &Kernel{yield: make(chan struct{}, 1)}
}

// Now returns the current simulated time.
func (k *Kernel) Now() Time { return k.now }

// Timer is a handle to a scheduled callback; Cancel prevents a pending
// callback from firing. The generation pins the handle to one incarnation
// of the (recycled) event struct. Timer is a small value: copying it is
// free and the zero value is a no-op handle.
type Timer struct {
	ev  *event
	gen uint64
}

// Cancel marks the timer dead. Canceling an already-fired or already-
// canceled timer is a no-op. It reports whether the cancel took effect.
func (t Timer) Cancel() bool {
	// A handle's gen is even; a canceled or recycled event's differs.
	if t.ev == nil || t.ev.gen != t.gen {
		return false
	}
	t.ev.gen |= 1
	return true
}

// newEvent takes a recycled event (or allocates one), stamps it with the
// given time and the next sequence number, and queues it; the caller then
// fills the payload fields, which the queue never reads. Scheduling in the
// past panics (events must be causal).
func (k *Kernel) newEvent(t Time) *event {
	if t < k.now {
		panic(fmt.Sprintf("sim: ScheduleAt(%g) before now (%g)", t, k.now))
	}
	var ev *event
	if n := len(k.free); n > 0 {
		ev = k.free[n-1]
		k.free[n-1] = nil
		k.free = k.free[:n-1]
		ev.t = t
	} else {
		ev = &event{t: t}
	}
	ev.seq = k.nextSeq()
	if sh := k.par; sh != nil && sh.window {
		sh.logCall(ev, ev.gen)
	}
	// calQueue.push, spelled out so a small queue (no ring yet: the bare
	// overflow heap) pushes with no extra call.
	if q := &k.events; q.ring == nil && len(q.over) < ringFrom {
		q.over.push(ev)
	} else {
		q.pushRing(ev)
	}
	return ev
}

// nextSeq draws the next sequence number. A standalone kernel uses its own
// counter; a ParKernel shard draws from the shared counter while the run is
// single-threaded (setup, between windows) and from its provisional
// per-shard counter (rebased each window, renumbered to the exact serial
// values at the barrier — see parallel.go) while a window is draining.
func (k *Kernel) nextSeq() uint64 {
	if sh := k.par; sh != nil && !sh.window {
		s := sh.pk.seq
		sh.pk.seq++
		return s
	}
	s := k.seq
	k.seq++
	return s
}

// scheduleEvent is the internal Timer-free scheduling path: it registers
// either a callback (fn) or a process resumption (p) at absolute time t,
// reusing a recycled event when one is free.
func (k *Kernel) scheduleEvent(t Time, fn func(), p *Proc) *event {
	ev := k.newEvent(t)
	ev.fn, ev.proc = fn, p
	return ev
}

// scheduleActEvent registers a step of activity a at absolute time t —
// the activity-mode resumption path, allocation-free at steady state.
func (k *Kernel) scheduleActEvent(t Time, a *ActCtx) *event {
	ev := k.newEvent(t)
	ev.act = a
	return ev
}

// ScheduleAt registers fn to run at absolute simulated time t. Scheduling
// in the past panics (events must be causal).
func (k *Kernel) ScheduleAt(t Time, fn func()) Timer {
	ev := k.scheduleEvent(t, fn, nil)
	return Timer{ev: ev, gen: ev.gen}
}

// Schedule registers fn to run after the given delay (>= 0).
func (k *Kernel) Schedule(delay Time, fn func()) Timer {
	if delay < 0 {
		panic(fmt.Sprintf("sim: Schedule with negative delay %g", delay))
	}
	return k.ScheduleAt(k.now+delay, fn)
}

// ScheduleArg registers fn(arg) to run after the given delay (>= 0). The
// callback and its argument travel separately through the (recycled)
// event, so one per-run function value can serve any number of scheduled
// deliveries with no closure allocation per call — the timed message-
// delivery path of the activity-mode models. Passing a pointer as arg does
// not allocate.
func (k *Kernel) ScheduleArg(delay Time, fn func(any), arg any) Timer {
	if delay < 0 {
		panic(fmt.Sprintf("sim: ScheduleArg with negative delay %g", delay))
	}
	ev := k.newEvent(k.now + delay)
	ev.afn, ev.arg = fn, arg
	return Timer{ev: ev, gen: ev.gen}
}

// Stop requests that the current Run call return after the event that is
// executing finishes. Remaining processes are killed as on normal
// completion.
func (k *Kernel) Stop() { k.stopped = true }

// dispatch executes due events on the calling goroutine until the logical
// thread must move elsewhere. self is the parked process driving the loop
// (nil for the controller and for finished processes). Callback events run
// inline; a resumption of self returns resumedSelf with no channel
// traffic; a resumption of any other process starts or wakes it and
// returns handedOff — the caller must then relinquish control. When
// nothing is due within the window, dispatch returns exhausted.
//
// A panicking callback is recorded as the run's error and stops the run
// (it would otherwise unwind whichever goroutine happened to be
// dispatching, crashing the program from a process that did nothing
// wrong).
func (k *Kernel) dispatch(self *Proc) dispatchState {
	for {
		if k.stopped || k.draining {
			return exhausted
		}
		q := &k.events
		ev := q.peek()
		if ev == nil {
			return exhausted
		}
		if ev.dead() {
			q.pop()
			k.recycle(ev)
			continue
		}
		if k.bounded && (ev.t > k.until || (k.strict && ev.t == k.until)) {
			return exhausted
		}
		// calQueue.pop, spelled out so a small queue (no ring yet: the bare
		// overflow heap) pops with no extra call.
		if q.ring == nil {
			q.over.pop()
		} else {
			q.popRing()
		}
		k.now = ev.t
		if sh := k.par; sh != nil && sh.window {
			// Every schedule made while this event (or code it hands the
			// logical thread to) runs is logged under it for the barrier's
			// serial renumbering.
			sh.curT, sh.curSeq, sh.curLogged = ev.t, ev.seq, false
		}
		// The payload fields are read lazily, most-frequent kind first, so
		// the hot resume paths touch as little of the event as possible.
		if a := ev.act; a != nil {
			k.recycle(ev)
			// Activity step: runs inline on this goroutine — the logical
			// thread never moves, whole bursts of activity events drain
			// with no handoffs at all.
			if !a.done {
				k.stepActivity(a)
			}
			continue
		}
		if p := ev.proc; p != nil {
			k.recycle(ev)
			if p.done {
				// Stale resumption of a finished process (possible only for
				// events left over from a previous window); skip it.
				continue
			}
			if p == self {
				return resumedSelf
			}
			k.startOrWake(p)
			return handedOff
		}
		fn, afn, arg := ev.fn, ev.afn, ev.arg
		k.recycle(ev)
		if afn != nil {
			k.runArgCallback(afn, arg)
		} else {
			k.runCallback(fn)
		}
	}
}

// runCallback runs one scheduled callback, converting a panic into the
// run's error so the failure surfaces from Run regardless of which
// goroutine was dispatching.
func (k *Kernel) runCallback(fn func()) {
	defer func() {
		if r := recover(); r != nil {
			if k.err == nil {
				k.err = fmt.Errorf("sim: scheduled callback panicked: %v", r)
			}
			k.stopped = true
		}
	}()
	fn()
}

// runArgCallback is runCallback for ScheduleArg events.
func (k *Kernel) runArgCallback(fn func(any), arg any) {
	defer func() {
		if r := recover(); r != nil {
			if k.err == nil {
				k.err = fmt.Errorf("sim: scheduled callback panicked: %v", r)
			}
			k.stopped = true
		}
	}()
	fn(arg)
}

// startOrWake gives the logical thread to process p.
func (k *Kernel) startOrWake(p *Proc) {
	if !p.started {
		p.started = true
		go p.main()
	} else {
		p.wake <- struct{}{}
	}
}

// recycle returns a popped event to the free list for the next
// scheduleEvent. Moving gen to the next even value revives the struct and
// invalidates any Timer still holding it.
func (k *Kernel) recycle(ev *event) {
	ev.fn = nil
	ev.proc = nil
	ev.act = nil
	ev.afn = nil
	ev.arg = nil
	ev.gen = (ev.gen | 1) + 1
	k.free = append(k.free, ev)
}

// drain runs the event loop from the controller side over the given
// window: dispatch until nothing is due, waiting out each burst that
// process goroutines carry among themselves. Reentry — Run or Advance
// called from a callback or process while a window is active — would
// clobber the window and can deadlock the handoff protocol, so it panics
// instead (surfacing as the run's error when it happens inside the
// simulation).
func (k *Kernel) drain(until Time, bounded bool) {
	if k.running {
		panic("sim: Run/Advance called from inside the running simulation")
	}
	k.running = true
	defer func() { k.running = false }()
	k.until, k.bounded = until, bounded
	for !k.stopped {
		switch k.dispatch(nil) {
		case handedOff:
			<-k.yield
		case exhausted:
			return
		}
	}
}

// Advance runs the simulation up to simulated time `until` and returns the
// first process error, if any. Unlike Run it does not kill the remaining
// processes, so repeated Advance calls execute a simulation incrementally;
// after Advance returns, Now() == until (unless Stop was called). Advance
// must be called from outside the simulation — calling it from a process
// or scheduled callback panics.
func (k *Kernel) Advance(until Time) error {
	if until < k.now {
		return fmt.Errorf("sim: Advance(%g) before now (%g)", until, k.now)
	}
	k.drain(until, true)
	if !k.stopped {
		k.now = until
	}
	return k.err
}

// Run advances the simulation until simulated time `until`, then kills any
// remaining processes and returns the first process error (model panic), if
// any. After Run returns, Now() == until (unless Stop was called earlier).
func (k *Kernel) Run(until Time) error {
	if until < k.now {
		return fmt.Errorf("sim: Run(%g) before now (%g)", until, k.now)
	}
	k.drain(until, true)
	if !k.stopped {
		k.now = until
	}
	k.shutdown()
	return k.err
}

// RunUntilIdle advances the simulation until no events remain. It returns
// the final simulated time and ErrDeadlock if blocked processes remain, or
// the first process error.
func (k *Kernel) RunUntilIdle() (Time, error) {
	k.drain(0, false)
	if k.err != nil {
		k.shutdown()
		return k.now, k.err
	}
	if k.live > 0 || k.actsBlocked > 0 {
		// Blocked processes and blocked (queue-registered) activities both
		// mean the model stalled. Activities that merely returned without a
		// pending resumption are dormant by design (an idle event-oriented
		// server) and do not count.
		blocked := k.live + k.actsBlocked
		k.shutdown()
		if k.err != nil {
			return k.now, k.err
		}
		return k.now, fmt.Errorf("%w (%d blocked)", ErrDeadlock, blocked)
	}
	k.shutdown()
	return k.now, k.err
}

// shutdown kills every remaining process so no goroutines leak. The procs
// list is in spawn (id) order, so processes die lowest id first —
// deterministic and, unlike a min-scan per kill, linear in the number of
// processes. A process whose deferred cleanup parks again (a blocking
// Wait or Acquire in a defer) is re-killed until it finishes, one defer
// level per pass, exactly as the old retry-until-empty loop did.
// Dispatch is suspended for the duration: events scheduled by dying
// processes' deferred cleanup accumulate but never fire.
func (k *Kernel) shutdown() {
	k.draining = true
	for i := 0; i < len(k.procs); i++ { // len re-read: defers may Spawn
		p := k.procs[i]
		for !p.done {
			k.kill(p)
		}
	}
	k.procs = k.procs[:0]
	k.live = 0
	// Activities have no stack to unwind: finishing them is marking them
	// done (which also deregisters the blocked ones from the deadlock
	// count). They die after the processes so that dying processes'
	// deferred cleanup may still Release/Trigger toward them.
	for _, a := range k.acts {
		k.finishAct(a)
	}
	k.acts = k.acts[:0]
	k.liveActs = 0
	k.actsBlocked = 0
	k.draining = false
}

// kill terminates one live process and waits for it to unwind.
func (k *Kernel) kill(p *Proc) {
	p.killed = true
	if p.cancel != nil {
		p.cancel()
		p.cancel = nil
	}
	k.startOrWake(p)
	<-k.yield
}

// addProc registers a newly spawned process, sweeping reaped entries when
// the roster has grown well past the live population. The sweep is
// suppressed mid-shutdown: it would shift not-yet-killed processes below
// the kill loop's index.
func (k *Kernel) addProc(p *Proc) {
	if !k.draining && len(k.procs) >= 64 && len(k.procs) >= 2*k.live {
		kept := k.procs[:0]
		for _, q := range k.procs {
			if !q.done {
				kept = append(kept, q)
			}
		}
		for i := len(kept); i < len(k.procs); i++ {
			k.procs[i] = nil
		}
		k.procs = kept
	}
	k.procs = append(k.procs, p)
	k.live++
}

// scheduleResume schedules process p to be resumed after delay. This is the
// only correct way to wake a process from inside another process (direct
// resume would re-enter the handoff protocol). The wakeup is a recycled
// proc-carrying event, so the path does not allocate.
func (k *Kernel) scheduleResume(p *Proc, delay Time) {
	if delay < 0 {
		panic(fmt.Sprintf("sim: Schedule with negative delay %g", delay))
	}
	k.scheduleEvent(k.now+delay, nil, p)
}

// scheduleResumeTimer is scheduleResume with a cancel handle, for
// interruptible waits.
func (k *Kernel) scheduleResumeTimer(p *Proc, delay Time) Timer {
	if delay < 0 {
		panic(fmt.Sprintf("sim: Schedule with negative delay %g", delay))
	}
	ev := k.scheduleEvent(k.now+delay, nil, p)
	return Timer{ev: ev, gen: ev.gen}
}

// PopFront removes and returns the head of a FIFO slice by compacting in
// place: q[1:] would creep through the backing array and eventually
// reallocate, while shifting keeps steady-state queue traffic
// allocation-free (simulation queues are short, the copy is cheap). The
// kernel's wait queues and the queueing package's job queues share it.
func PopFront[T any](q []T) ([]T, T) {
	head := q[0]
	n := copy(q, q[1:])
	var zero T
	q[n] = zero
	return q[:n], head
}

// Idle reports whether nothing can ever happen again: no events are
// pending, no processes are live, and no activities are blocked in a wait
// queue. Dormant activities (spawned, not exited, nothing pending) do not
// count — with no events left they will never be stepped again.
func (k *Kernel) Idle() bool { return k.events.size() == 0 && k.live == 0 && k.actsBlocked == 0 }

// PendingEvents returns the number of scheduled (possibly canceled) events;
// exposed for tests and diagnostics.
func (k *Kernel) PendingEvents() int { return k.events.size() }

// LiveProcs returns the number of live processes.
func (k *Kernel) LiveProcs() int { return k.live }

// LiveActivities returns the number of spawned, not-yet-exited activities.
func (k *Kernel) LiveActivities() int { return k.liveActs }

func (k *Kernel) trace(t Time, name, state string) {
	if k.Tracer != nil {
		k.Tracer.ProcState(t, name, state)
	}
}
