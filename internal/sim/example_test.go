package sim_test

import (
	"fmt"

	"repro/internal/sim"
)

// A minimal two-activity simulation: a producer feeds a store, a consumer
// drains it, the kernel interleaves them deterministically.
func Example() {
	k := sim.NewKernel()
	box := sim.NewStore[string](k, "box")
	msgs := []string{"hello", "world"}
	sent := 0
	k.SpawnActivity("producer", sim.ActivityFunc(func(a *sim.ActCtx) {
		if a.Now() > 0 {
			box.TryPut(msgs[sent])
			sent++
		}
		if sent == len(msgs) {
			a.Exit()
			return
		}
		a.Wait(5)
	}))
	received := 0
	k.SpawnActivity("consumer", sim.ActivityFunc(func(a *sim.ActCtx) {
		for received < len(msgs) {
			msg, ok := box.GetAct(a)
			if !ok {
				return // stepped again when an item arrives
			}
			fmt.Printf("t=%v: %s\n", a.Now(), msg)
			received++
		}
		a.Exit()
	}))
	if _, err := k.RunUntilIdle(); err != nil {
		panic(err)
	}
	// Output:
	// t=5: hello
	// t=10: world
}

// job takes the cpu, holds it for 10 cycles, and releases it.
type job struct {
	id    int
	cpu   *sim.Resource
	state int
}

func (j *job) Step(a *sim.ActCtx) {
	switch j.state {
	case 0:
		j.state = 1
		if !j.cpu.Acquire1Act(a) {
			return // stepped again holding the grant
		}
		fallthrough
	case 1:
		j.state = 2
		a.Wait(10)
	case 2:
		j.cpu.Release(1)
		fmt.Printf("job %d done at t=%v\n", j.id, a.Now())
		a.Exit()
	}
}

// Resources model servers: capacity 1 makes jobs queue FIFO.
func ExampleResource() {
	k := sim.NewKernel()
	cpu := sim.NewResource(k, "cpu", 1, sim.FIFO)
	for i := 0; i < 3; i++ {
		k.SpawnActivity("job", &job{id: i, cpu: cpu})
	}
	if _, err := k.RunUntilIdle(); err != nil {
		panic(err)
	}
	fmt.Printf("utilization: %.0f%%\n", 100*cpu.Utilization(k.Now()))
	// Output:
	// job 0 done at t=10
	// job 1 done at t=20
	// job 2 done at t=30
	// utilization: 100%
}
