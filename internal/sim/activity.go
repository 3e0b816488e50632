package sim

// Activity execution mode: run-to-completion event handlers driven inline
// by the kernel's dispatch loop, with zero goroutines, zero channel
// operations, and zero stack switches. Activities coexist with Proc-based
// processes on the same event queue — mixed models interleave under the
// exact same deterministic (t, seq) order — but a switch between two
// activities costs only an event-queue pop and a method call, where a
// switch between two processes costs a goroutine handoff.
//
// The price is the classic event-oriented one: an activity cannot block
// mid-function. It is a state machine the kernel steps; every blocking
// primitive comes in a "try or register" form (AcquireAct, GetAct,
// WaitAct) whose slow path registers the activity and returns, and the
// activity is stepped again when the wait is over. See the package
// comment for guidance on choosing between the two modes.

import "fmt"

// Activity is a run-to-completion event handler. The kernel calls Step
// each time the activity is resumed: at its spawn time, after every
// ActCtx.Wait/Sleep, and when a blocking registration (resource grant,
// store delivery, signal trigger) completes. Step must not block; it
// performs inline work, issues at most one pending wait or registration,
// and returns. An activity ends by calling ActCtx.Exit.
type Activity interface {
	Step(a *ActCtx)
}

// ActivityFunc adapts a plain function to the Activity interface.
type ActivityFunc func(a *ActCtx)

// Step calls the function.
func (f ActivityFunc) Step(a *ActCtx) { f(a) }

// ActCtx is the kernel-side record of one spawned activity and the handle
// its Step method uses to interact with the kernel (the activity-mode
// counterpart of Context). An ActCtx is only valid between SpawnActivity
// and Exit, on the kernel's single logical thread.
type ActCtx struct {
	k    *Kernel
	act  Activity
	name string
	id   int64

	started bool // first Step delivered (traces "start")
	done    bool // Exit called or killed at end of run
	// pending is set while a resumption is owed — a scheduled resume
	// event, or a registration in a resource/store/signal queue that will
	// schedule one. At most one may exist at a time; a second blocking
	// call before the first resolves is a model bug and panics.
	pending bool
	// waiting is set while the activity is registered in a wait structure
	// with no scheduled event (it counts toward deadlock detection).
	waiting bool
	// waitTraced mirrors the Proc trace protocol: Wait traces "wait" and
	// the matching resumption traces "run".
	waitTraced bool

	// sleep is the pending interruptible Sleep timer, for Interrupt.
	sleep       Timer
	interrupted bool

	// rw is the embedded resource waiter: an activity blocks on at most
	// one resource at a time, so queue registration needs no allocation.
	rw resWaiter
	// wslot holds an in-flight store waiter (a *storeWaiter[T] pointer;
	// storing a pointer in an interface does not allocate).
	wslot any
}

// SpawnActivity registers act and schedules its first Step at the current
// simulated time.
func (k *Kernel) SpawnActivity(name string, act Activity) *ActCtx {
	return k.SpawnActivityAt(k.now, name, act)
}

// SpawnActivityAt registers act with its first Step at absolute time t.
func (k *Kernel) SpawnActivityAt(t Time, name string, act Activity) *ActCtx {
	a := &ActCtx{k: k, act: act, name: name, id: k.nextID}
	a.rw.a = a
	k.nextID++
	k.addAct(a)
	if t < k.now {
		panic(fmt.Sprintf("sim: SpawnActivityAt(%g) before now (%g)", t, k.now))
	}
	a.pending = true
	k.scheduleActEvent(t, a)
	return a
}

// addAct registers a spawned activity, sweeping finished entries when the
// roster has grown well past the live population (same policy as addProc).
func (k *Kernel) addAct(a *ActCtx) {
	if !k.draining && len(k.acts) >= 64 && len(k.acts) >= 2*k.liveActs {
		kept := k.acts[:0]
		for _, q := range k.acts {
			if !q.done {
				kept = append(kept, q)
			}
		}
		for i := len(kept); i < len(k.acts); i++ {
			k.acts[i] = nil
		}
		k.acts = kept
	}
	k.acts = append(k.acts, a)
	k.liveActs++
}

// stepActivity delivers one resumption: it runs Step inline on whichever
// goroutine is dispatching, converting a panic into the run's error (the
// same containment runCallback gives scheduled callbacks).
func (k *Kernel) stepActivity(a *ActCtx) {
	a.pending = false
	if k.Tracer != nil {
		if !a.started {
			k.trace(k.now, a.name, "start")
		} else if a.waitTraced {
			a.waitTraced = false
			k.trace(k.now, a.name, "run")
		}
	}
	a.started = true
	defer func() {
		if r := recover(); r != nil {
			if k.err == nil {
				k.err = fmt.Errorf("sim: activity %q panicked: %v", a.name, r)
			}
			k.stopped = true
		}
	}()
	a.act.Step(a)
}

// finishAct marks one activity done and drops it from the live count.
func (k *Kernel) finishAct(a *ActCtx) {
	if a.done {
		return
	}
	a.done = true
	if a.waiting {
		a.waiting = false
		k.actsBlocked--
	}
	k.liveActs--
	k.trace(k.now, a.name, "done")
}

// blockAct records that a (not yet resumable) registration now owns the
// activity: it counts as blocked for deadlock detection until a grant
// schedules its resumption.
func (k *Kernel) blockAct(a *ActCtx) {
	if a.pending {
		panic(fmt.Sprintf("sim: activity %q blocked while a resumption is already pending", a.name))
	}
	a.pending = true
	a.waiting = true
	k.actsBlocked++
}

// resumeBlockedAct converts a blocked registration into a scheduled
// resumption at the current time (grant, delivery, trigger). A grant
// reaching an already-finished activity (end-of-run teardown) is dropped
// so the blocked accounting stays intact.
func (k *Kernel) resumeBlockedAct(a *ActCtx) {
	if a.done {
		return
	}
	a.waiting = false
	k.actsBlocked--
	k.scheduleActEvent(k.now, a)
}

// Now returns the current simulated time.
func (a *ActCtx) Now() Time { return a.k.now }

// Kernel returns the kernel this activity runs on.
func (a *ActCtx) Kernel() *Kernel { return a.k }

// Name returns the activity name given at spawn time.
func (a *ActCtx) Name() string { return a.name }

// Done reports whether the activity has exited.
func (a *ActCtx) Done() bool { return a.done }

// Wait schedules this activity's next Step after d (>= 0) simulated time.
// It is the inline-fast-path equivalent of Context.Wait: the resumption is
// a recycled event, so the path does not allocate. Step must return after
// calling Wait without issuing another blocking call.
func (a *ActCtx) Wait(d Time) {
	if d < 0 {
		panic(fmt.Sprintf("sim: Wait with negative duration %g", d))
	}
	if a.pending {
		panic(fmt.Sprintf("sim: activity %q scheduled a second resumption in one step", a.name))
	}
	if a.k.Tracer != nil {
		a.k.trace(a.k.now, a.name, "wait")
		a.waitTraced = true
	}
	a.pending = true
	a.k.scheduleActEvent(a.k.now+d, a)
}

// WaitUntil schedules the next Step at absolute simulated time t (>= now).
func (a *ActCtx) WaitUntil(t Time) { a.Wait(t - a.k.now) }

// Yield lets every other event scheduled at the current instant run before
// this activity's next Step (equivalent to Wait(0), named for intent).
func (a *ActCtx) Yield() { a.Wait(0) }

// Sleep is the interruptible wait: the next Step runs after d simulated
// time, or immediately if another process or activity calls
// InterruptActivity meanwhile. The resumed Step distinguishes the two with
// Interrupted.
func (a *ActCtx) Sleep(d Time) {
	if d < 0 {
		panic(fmt.Sprintf("sim: Sleep with negative duration %g", d))
	}
	if a.pending {
		panic(fmt.Sprintf("sim: activity %q scheduled a second resumption in one step", a.name))
	}
	a.pending = true
	ev := a.k.scheduleActEvent(a.k.now+d, a)
	a.sleep = Timer{ev: ev, gen: ev.gen}
}

// Interrupted consumes and reports the interrupt flag: true when the
// current Step was resumed early out of Sleep by InterruptActivity.
func (a *ActCtx) Interrupted() bool {
	was := a.interrupted
	a.interrupted = false
	return was
}

// InterruptActivity wakes target early if it is blocked in an
// interruptible Sleep, reporting whether an interrupt was delivered.
// Interrupting an activity that is not sleeping is a no-op returning
// false (matching Kernel.Interrupt for processes: only interruptible
// waits are interruptible).
func (k *Kernel) InterruptActivity(target *ActCtx) bool {
	if target.done || !target.sleep.Cancel() {
		return false
	}
	target.sleep = Timer{}
	target.interrupted = true
	target.pending = true
	k.scheduleActEvent(k.now, target)
	return true
}

// Exit ends the activity. Any stale resumption left in the event queue is
// skipped. Exit must be the last kernel interaction of the final Step;
// exiting while registered in a wait queue is a model bug (the eventual
// grant would reach a dead activity — and, for a resource, leak the taken
// units) and panics rather than corrupting state silently.
func (a *ActCtx) Exit() {
	if a.waiting {
		panic(fmt.Sprintf("sim: activity %q exited while registered in a wait queue", a.name))
	}
	a.k.finishAct(a)
}

// Spawn starts a child process at the current time (activities may own
// process-based helpers in mixed models).
func (a *ActCtx) Spawn(name string, fn func(*Context)) *Proc {
	return a.k.Spawn(name, fn)
}

// SpawnActivity starts a sibling activity at the current time.
func (a *ActCtx) SpawnActivity(name string, act Activity) *ActCtx {
	return a.k.SpawnActivity(name, act)
}
