package parcel

import (
	"fmt"

	"repro/internal/sim"
	"repro/internal/stats"
)

// TimedMachine executes real parcels on the DES kernel: each node is a
// simulated processor that assimilates parcels from its queue, performs
// the action against its functional memory, and emits continuations with
// creation overhead and network latency. It is the parcel-level
// counterpart of the statistical parcelsys model — same mechanism, actual
// parcels — and exists to cross-validate the two and to time real
// parcel programs (graph walks, reductions) rather than synthetic ones.
// Each node runs as one activity (see timedNode).
type TimedMachine struct {
	k      *sim.Kernel
	nodes  []*Node
	queues []*sim.Store[*Parcel]
	cost   CostModel
	// Latency is the flat one-way inter-node latency in cycles.
	Latency float64
	// ActionCycles prices the service time of each action; nil uses
	// DefaultActionCycles(6, 20).
	ActionCycles func(a Action) float64

	// Busy tracks each node's time-weighted busy indicator.
	Busy []stats.TimeWeighted
	// Handled counts parcels serviced per node.
	Handled []int64

	// outstanding counts parcels injected or emitted and not yet handled.
	// While RunToQuiescence drives the kernel (watching), the completion
	// that drops it to zero records quiescedAt and stops the run.
	outstanding int64
	watching    bool
	quiescedAt  sim.Time
	deliver     func(any) // bound once; every emitted parcel's arrival reuses it
	err         error
}

// DefaultActionCycles prices memory-touching actions at memCycles and
// invocations at invokeCycles.
func DefaultActionCycles(memCycles, invokeCycles float64) func(Action) float64 {
	return func(a Action) float64 {
		switch a {
		case ActionInvoke:
			return invokeCycles
		default:
			return memCycles
		}
	}
}

var defaultActionCycles = DefaultActionCycles(6, 20)

// NewTimedMachine creates an n-node timed parcel machine on kernel k.
func NewTimedMachine(k *sim.Kernel, n int, reg *Registry, cost CostModel, latency float64) (*TimedMachine, error) {
	if n <= 0 {
		return nil, fmt.Errorf("parcel: NewTimedMachine(%d)", n)
	}
	if err := cost.Validate(); err != nil {
		return nil, err
	}
	if latency < 0 {
		return nil, fmt.Errorf("parcel: negative latency %g", latency)
	}
	tm := &TimedMachine{
		k:       k,
		cost:    cost,
		Latency: latency,
		Busy:    make([]stats.TimeWeighted, n),
		Handled: make([]int64, n),
	}
	tm.deliver = func(x any) {
		q := x.(*Parcel)
		tm.queues[q.DestNode].TryPut(q)
	}
	for i := 0; i < n; i++ {
		tm.nodes = append(tm.nodes, NewNode(uint32(i), reg))
		tm.queues = append(tm.queues, sim.NewStore[*Parcel](k, fmt.Sprintf("pq%d", i)))
		tm.Busy[i].Set(k.Now(), 0)
	}
	for i := 0; i < n; i++ {
		k.SpawnActivity(fmt.Sprintf("pnode-%d", i), &timedNode{tm: tm, i: i})
	}
	return tm, nil
}

// Node returns the functional node i (for staging memory and reading
// results).
func (tm *TimedMachine) Node(i int) *Node { return tm.nodes[i] }

// Inject enqueues a parcel from outside the machine at the current
// simulated time.
func (tm *TimedMachine) Inject(p *Parcel) error {
	if int(p.DestNode) >= len(tm.nodes) {
		return fmt.Errorf("parcel: inject to node %d of %d", p.DestNode, len(tm.nodes))
	}
	tm.outstanding++
	tm.queues[p.DestNode].TryPut(p)
	return nil
}

// timedNode is one node's processor loop as an activity: take a parcel
// (waiting while the queue is empty), assimilate it, perform its action,
// then emit each continuation after its creation overhead.
type timedNode struct {
	tm    *TimedMachine
	i     int
	state int
	p     *Parcel   // the parcel in service
	out   []*Parcel // its continuations
	next  int       // index of the next continuation in out
}

// timedNode states: what the next Step resumes.
const (
	nodeIdle        = iota // take the next parcel
	nodeAssimilated        // start the action
	nodeActed              // handle the parcel
	nodeEmit               // consider out[next]
	nodeCreated            // send out[next]
)

func (n *timedNode) Step(a *sim.ActCtx) {
	tm := n.tm
	for {
		switch n.state {
		case nodeIdle:
			p, ok := tm.queues[n.i].GetAct(a)
			if !ok {
				return
			}
			n.p = p
			tm.Busy[n.i].Set(a.Now(), 1)
			n.state = nodeAssimilated
			if tm.cost.AssimilateCycles > 0 {
				a.Wait(tm.cost.AssimilateCycles)
				return
			}
		case nodeAssimilated:
			n.state = nodeActed
			cost := tm.ActionCycles
			if cost == nil {
				cost = defaultActionCycles
			}
			a.Wait(cost(n.p.Action))
			return
		case nodeActed:
			out, err := tm.nodes[n.i].Handle(n.p)
			n.p = nil
			if err != nil {
				tm.err = err
				tm.handled(n.i, a.Now())
				a.Exit()
				return
			}
			tm.Handled[n.i]++
			n.out, n.next = out, 0
			n.state = nodeEmit
		case nodeEmit:
			if n.next == len(n.out) {
				n.out = nil
				tm.handled(n.i, a.Now())
				n.state = nodeIdle
				continue
			}
			if q := n.out[n.next]; int(q.DestNode) >= len(tm.nodes) {
				tm.err = fmt.Errorf("parcel: emitted parcel for node %d of %d", q.DestNode, len(tm.nodes))
				n.next++
				continue
			}
			n.state = nodeCreated
			if tm.cost.CreateCycles > 0 {
				a.Wait(tm.cost.CreateCycles)
				return
			}
		case nodeCreated:
			q := n.out[n.next]
			n.next++
			lat := 0.0
			if q.DestNode != uint32(n.i) {
				lat = tm.Latency
			}
			tm.outstanding++
			tm.k.ScheduleArg(lat, tm.deliver, q)
			n.state = nodeEmit
		}
	}
}

// handled retires node i's parcel in service at time now; the last
// outstanding parcel ends a RunToQuiescence run.
func (tm *TimedMachine) handled(i int, now sim.Time) {
	tm.outstanding--
	tm.Busy[i].Set(now, 0)
	if tm.outstanding == 0 && tm.watching {
		tm.quiescedAt = now
		tm.k.Stop()
	}
}

// RunToQuiescence advances the kernel until all injected parcels (and
// their transitive continuations) have been handled, or until maxCycles.
// It returns the completion time.
func (tm *TimedMachine) RunToQuiescence(maxCycles sim.Time) (sim.Time, error) {
	if tm.outstanding == 0 {
		return tm.k.Now(), nil
	}
	tm.watching, tm.quiescedAt = true, -1
	err := tm.k.Run(maxCycles)
	tm.watching = false
	if err != nil {
		return tm.k.Now(), err
	}
	if tm.err != nil {
		return tm.k.Now(), tm.err
	}
	if tm.quiescedAt < 0 {
		return tm.k.Now(), fmt.Errorf("parcel: %d parcels still outstanding at cycle %g",
			tm.outstanding, maxCycles)
	}
	return tm.quiescedAt, nil
}

// TotalHandled sums handled parcels across nodes.
func (tm *TimedMachine) TotalHandled() int64 {
	var s int64
	for _, h := range tm.Handled {
		s += h
	}
	return s
}

// BusyFrac returns node i's busy fraction over [0, now].
func (tm *TimedMachine) BusyFrac(i int, now sim.Time) float64 {
	return tm.Busy[i].Mean(now)
}
