package sim

import "testing"

// The alloc guards pin the kernel's zero-allocation contract on every
// hot path: once pools and wheel buckets are warm, sleeping, gate
// handoffs, queue transfers, task firings, and even process spawning
// must not allocate. testing.AllocsPerRun counts mallocs process-wide,
// and exactly one coroutine executes simulator code at a time, so
// measuring from inside a process (around a park/resume) is sound: the
// count covers the parking process, any process it hands off to, and
// the event loop in between.
//
// They skip under the race detector, which instruments allocation and
// breaks the zero-alloc accounting.

func TestSleepZeroAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("alloc accounting is not meaningful under -race")
	}
	e := NewEnv(1)
	var got float64
	e.Go("sleeper", func(p *Proc) {
		for i := 0; i < 64; i++ { // warm runner pool and wheel buckets
			p.Sleep(10)
		}
		got = testing.AllocsPerRun(200, func() { p.Sleep(10) })
	})
	e.RunAll()
	if got != 0 {
		t.Fatalf("Sleep allocates %v per op, want 0", got)
	}
}

func TestGatePingPongZeroAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("alloc accounting is not meaningful under -race")
	}
	e := NewEnv(1)
	ga, gb := NewGate(e), NewGate(e)
	var got float64
	stop := false
	e.Go("a", func(p *Proc) {
		for i := 0; i < 64; i++ {
			gb.Wake()
			ga.Wait(p)
		}
		got = testing.AllocsPerRun(200, func() {
			gb.Wake()
			ga.Wait(p)
		})
		stop = true
		gb.Wake()
	})
	e.Go("b", func(p *Proc) {
		for !stop {
			gb.Wait(p)
			ga.Wake()
		}
	})
	e.RunAll()
	if got != 0 {
		t.Fatalf("gate ping-pong allocates %v per round, want 0", got)
	}
}

func TestQueueZeroAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("alloc accounting is not meaningful under -race")
	}
	e := NewEnv(1)
	q := NewQueue[int](e)
	var got float64
	stop := false
	e.Go("producer", func(p *Proc) {
		// Warm the item buffer, the waiter slice, and one full revolution
		// of the wheel's level-0 ring (wheelSize one-cycle buckets) so the
		// measured window sees no first-touch bucket allocations.
		for i := 0; i < wheelSize+128; i++ {
			q.Push(i)
			p.Sleep(1)
		}
		got = testing.AllocsPerRun(200, func() {
			q.Push(7)
			p.Sleep(1)
		})
		stop = true
		q.Push(-1)
	})
	e.Go("consumer", func(p *Proc) {
		for !stop {
			q.Pop(p)
		}
	})
	e.RunAll()
	if got != 0 {
		t.Fatalf("queue push/pop allocates %v per round, want 0", got)
	}
}

func TestTaskZeroAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("alloc accounting is not meaningful under -race")
	}
	e := NewEnv(1)
	n := 0
	var tk *Task
	tk = NewTask(e, "tick", func() {
		if n > 0 {
			n--
			tk.FireAfter(10)
		}
	})
	n = 64 // warm the wheel
	tk.FireAfter(1)
	e.RunAll()
	got := testing.AllocsPerRun(20, func() {
		n = 100
		tk.FireAfter(1)
		e.RunAll()
	})
	if got != 0 {
		t.Fatalf("task firing allocates %v per chain, want 0", got)
	}
}

// TestProcSpawnZeroAllocs pins the pooled-Proc satellite: steady-state
// process creation (one unithread per admitted request in the
// scheduler) reuses both the runner coroutine and the Proc object, so a
// spawn-run-terminate cycle is allocation-free.
func TestProcSpawnZeroAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("alloc accounting is not meaningful under -race")
	}
	e := NewEnv(1)
	body := func(p *Proc) { p.Sleep(1) }
	var got float64
	e.Go("driver", func(p *Proc) {
		// Warm the runner and proc free lists plus a full level-0 ring
		// revolution (the driver advances two cycles per spawn).
		for i := 0; i < wheelSize/2+128; i++ {
			e.Go("u", body)
			p.Sleep(2)
		}
		got = testing.AllocsPerRun(200, func() {
			e.Go("u", body)
			p.Sleep(2)
		})
	})
	e.RunAll()
	if e.LiveProcs() != 0 {
		t.Fatalf("leaked %d procs", e.LiveProcs())
	}
	if got != 0 {
		t.Fatalf("proc spawn allocates %v per op, want 0", got)
	}
}
