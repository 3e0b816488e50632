package sim

// Property-based tests of kernel invariants under randomized workloads:
// resource conservation, store conservation, clock monotonicity, and
// schedule-order stability.

import (
	"testing"
	"testing/quick"

	"repro/internal/rng"
)

// TestResourceConservationProperty: for any random mix of jobs, a resource
// never exceeds its capacity, never goes negative, and every grant is
// eventually released (acquire count == release count at quiescence).
func TestResourceConservationProperty(t *testing.T) {
	err := quick.Check(func(seed uint64, capRaw, jobsRaw uint8) bool {
		capacity := 1 + int(capRaw%8)
		jobs := 1 + int(jobsRaw%40)
		st := rng.New(seed)
		k := NewKernel()
		r := NewResource(k, "res", capacity, FIFO)
		violations := 0
		releases := 0
		for j := 0; j < jobs; j++ {
			n := 1 + st.Intn(capacity)
			delay := st.Exp(5)
			hold := st.Exp(3)
			spawnScript(k, delay, "job",
				acquire(r, n, 0),
				do(func(*ActCtx) {
					if r.InUse() > r.Capacity() || r.InUse() < 0 {
						violations++
					}
				}),
				wait(hold),
				release(r, n),
				do(func(*ActCtx) { releases++ }))
		}
		if _, err := k.RunUntilIdle(); err != nil {
			return false
		}
		return violations == 0 && releases == jobs && r.InUse() == 0
	}, &quick.Config{MaxCount: 100})
	if err != nil {
		t.Error(err)
	}
}

// TestStoreConservationProperty: items put equals items got plus items
// still buffered, for any interleaving.
func TestStoreConservationProperty(t *testing.T) {
	err := quick.Check(func(seed uint64, putsRaw, getsRaw uint8) bool {
		nPuts := 1 + int(putsRaw%50)
		nGets := 1 + int(getsRaw%50)
		st := rng.New(seed)
		k := NewKernel()
		s := NewStore[int](k, "box")
		got := 0
		for i := 0; i < nPuts; i++ {
			v := i
			spawnScript(k, st.Exp(3), "put", put(s, v))
		}
		for i := 0; i < nGets; i++ {
			spawnScript(k, st.Exp(3), "get", get(s, func(int) { got++ }))
		}
		// Run bounded: excess getters stay blocked and are finished.
		if err := k.Run(1e7); err != nil {
			return false
		}
		expectedGot := nGets
		if nPuts < nGets {
			expectedGot = nPuts
		}
		return got == expectedGot && s.Size() == nPuts-expectedGot &&
			int(s.Puts()) == nPuts && int(s.Gets()) == expectedGot
	}, &quick.Config{MaxCount: 100})
	if err != nil {
		t.Error(err)
	}
}

// TestClockMonotonicityProperty: an activity observes non-decreasing time
// across arbitrary waits and resource interactions.
func TestClockMonotonicityProperty(t *testing.T) {
	err := quick.Check(func(seed uint64) bool {
		st := rng.New(seed)
		k := NewKernel()
		r := NewResource(k, "res", 2, FIFO)
		ok := true
		for i := 0; i < 10; i++ {
			k.SpawnActivity("p", &wanderer{st: st, r: r, ok: &ok})
		}
		if _, err := k.RunUntilIdle(); err != nil {
			return false
		}
		return ok
	}, &quick.Config{MaxCount: 50})
	if err != nil {
		t.Error(err)
	}
}

// wanderer takes 20 random steps — a wait, a resource hold, or a yield —
// and clears *ok if it ever observes the clock going backwards.
type wanderer struct {
	st    *rng.Stream
	r     *Resource
	ok    *bool
	last  Time
	steps int
	state int // 0: choose a step; 1: granted, start the hold; 2: hold over
}

func (w *wanderer) Step(a *ActCtx) {
	if a.Now() < w.last {
		*w.ok = false
	}
	w.last = a.Now()
	for {
		switch w.state {
		case 1:
			w.state = 2
			a.Wait(w.st.Exp(1))
			return
		case 2:
			w.r.Release(1)
			w.state = 0
		}
		if w.steps == 20 {
			a.Exit()
			return
		}
		w.steps++
		switch w.st.Intn(3) {
		case 0:
			a.Wait(w.st.Exp(2))
			return
		case 1:
			w.state = 1
			if !w.r.Acquire1Act(a) {
				return
			}
		case 2:
			a.Yield()
			return
		}
	}
}

// TestFIFOOrderProperty: under FIFO, grant order equals enqueue order for
// single-unit requests, regardless of arrival pattern.
func TestFIFOOrderProperty(t *testing.T) {
	err := quick.Check(func(seed uint64, jobsRaw uint8) bool {
		jobs := 2 + int(jobsRaw%30)
		st := rng.New(seed)
		k := NewKernel()
		r := NewResource(k, "res", 1, FIFO)
		type rec struct {
			arrival Time
			index   int
		}
		var grants []rec
		for j := 0; j < jobs; j++ {
			j := j
			at := st.Exp(1)
			spawnScript(k, at, "job",
				acquire(r, 1, 0),
				do(func(*ActCtx) { grants = append(grants, rec{arrival: at, index: j}) }),
				do(func(a *ActCtx) { a.Wait(st.Exp(4)) }),
				release(r, 1))
		}
		if _, err := k.RunUntilIdle(); err != nil {
			return false
		}
		for i := 1; i < len(grants); i++ {
			if grants[i].arrival < grants[i-1].arrival {
				return false
			}
		}
		return len(grants) == jobs
	}, &quick.Config{MaxCount: 100})
	if err != nil {
		t.Error(err)
	}
}

// TestWorkConservationProperty: a single-server resource with queued work
// never idles — total busy time equals total demanded service when demand
// exceeds the horizon.
func TestWorkConservationProperty(t *testing.T) {
	err := quick.Check(func(seed uint64) bool {
		st := rng.New(seed)
		k := NewKernel()
		r := NewResource(k, "res", 1, FIFO)
		// Offer 2x the horizon in service demand, all arriving at t=0.
		const horizon = 1000.0
		demand := 0.0
		for demand < 2*horizon {
			d := st.Exp(20)
			demand += d
			spawnScript(k, 0, "job", acquire(r, 1, 0), wait(d), release(r, 1))
		}
		if err := k.Run(horizon); err != nil {
			return false
		}
		util := r.Utilization(horizon)
		return util > 0.999
	}, &quick.Config{MaxCount: 30})
	if err != nil {
		t.Error(err)
	}
}
