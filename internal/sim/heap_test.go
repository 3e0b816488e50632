package sim

// Property tests of the specialized 4-ary eventHeap — the calendar
// queue's overflow, and the whole queue while it is small — against the
// reference container/heap implementation the kernel used before the
// hot-path overhaul: for arbitrary randomized schedules — including
// duplicate timestamps, interleaved pushes and pops, and canceled events
// — both heaps must pop in the identical (t, seq) order, so kernel
// determinism (and byte-identical suite output) is preserved by
// construction. refHeap is also the oracle of the calendar-queue tests in
// queue_test.go.

import (
	"container/heap"
	"testing"
	"testing/quick"

	"repro/internal/rng"
)

// refHeap is the old heap.Interface implementation, kept verbatim as the
// ordering oracle.
type refHeap []*event

func (h refHeap) Len() int { return len(h) }
func (h refHeap) Less(i, j int) bool {
	if h[i].t != h[j].t {
		return h[i].t < h[j].t
	}
	return h[i].seq < h[j].seq
}
func (h refHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *refHeap) Push(x any)   { *h = append(*h, x.(*event)) }
func (h *refHeap) Pop() any {
	old := *h
	n := len(old)
	ev := old[n-1]
	old[n-1] = nil
	*h = old[:n-1]
	return ev
}

// TestEventQueueMatchesContainerHeap: pushing the same randomized
// schedule into both heaps and draining yields the identical pop order.
func TestEventQueueMatchesContainerHeap(t *testing.T) {
	err := quick.Check(func(seed uint64, sizeRaw uint16) bool {
		n := 1 + int(sizeRaw%600)
		st := rng.New(seed)
		var q eventHeap
		var ref refHeap
		for i := 0; i < n; i++ {
			// Coarse timestamps force plenty of (t, seq) ties.
			ev := &event{t: Time(st.Intn(20)), seq: uint64(i)}
			q.push(ev)
			heap.Push(&ref, ev)
		}
		for i := 0; i < n; i++ {
			got := q.pop()
			want := heap.Pop(&ref).(*event)
			if got != want {
				t.Logf("pop %d: got (t=%g seq=%d), want (t=%g seq=%d)",
					i, got.t, got.seq, want.t, want.seq)
				return false
			}
		}
		return len(q) == 0
	}, &quick.Config{MaxCount: 200})
	if err != nil {
		t.Error(err)
	}
}

// TestEventQueueInterleavedMatchesContainerHeap: arbitrary interleavings
// of pushes and pops — the shape the dispatch loop actually produces,
// where firing events schedule new ones — agree at every step.
func TestEventQueueInterleavedMatchesContainerHeap(t *testing.T) {
	err := quick.Check(func(seed uint64, opsRaw uint16) bool {
		ops := 10 + int(opsRaw%2000)
		st := rng.New(seed)
		var q eventHeap
		var ref refHeap
		now := Time(0)
		seq := uint64(0)
		for i := 0; i < ops; i++ {
			if len(q) != len(ref) {
				return false
			}
			if len(q) == 0 || st.Float64() < 0.55 {
				// Causal schedule: never before the virtual clock.
				ev := &event{t: now + Time(st.Intn(8)), seq: seq}
				seq++
				q.push(ev)
				heap.Push(&ref, ev)
				continue
			}
			got := q.pop()
			want := heap.Pop(&ref).(*event)
			if got != want {
				return false
			}
			now = got.t
		}
		return true
	}, &quick.Config{MaxCount: 100})
	if err != nil {
		t.Error(err)
	}
}

// TestKernelScheduleOrderRandomized: end to end through the kernel —
// random same-and-distinct-time schedules with a sprinkling of cancels
// fire strictly in (t, seq) order, identically across reruns.
func TestKernelScheduleOrderRandomized(t *testing.T) {
	run := func(seed uint64, n int) []int {
		st := rng.New(seed)
		k := NewKernel()
		var order []int
		timers := make([]Timer, 0, n)
		for i := 0; i < n; i++ {
			i := i
			timers = append(timers, k.Schedule(Time(st.Intn(16)), func() {
				order = append(order, i)
			}))
		}
		// Cancel a deterministic random subset.
		for i := range timers {
			if st.Float64() < 0.2 {
				timers[i].Cancel()
			}
		}
		if _, err := k.RunUntilIdle(); err != nil {
			t.Fatal(err)
		}
		return order
	}
	err := quick.Check(func(seed uint64, sizeRaw uint8) bool {
		n := 1 + int(sizeRaw%200)
		a := run(seed, n)
		b := run(seed, n)
		if len(a) != len(b) {
			return false
		}
		for i := range a {
			if a[i] != b[i] {
				return false
			}
		}
		return true
	}, &quick.Config{MaxCount: 50})
	if err != nil {
		t.Error(err)
	}
}
