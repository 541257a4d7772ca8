package sim

import (
	"runtime"
	"testing"
	"testing/quick"
)

func TestTimeConversions(t *testing.T) {
	if Micros(1) != 2000 {
		t.Fatalf("Micros(1) = %d, want 2000", Micros(1))
	}
	if Millis(1) != 2_000_000 {
		t.Fatalf("Millis(1) = %d, want 2e6", Millis(1))
	}
	if Seconds(1) != CyclesPerSec {
		t.Fatalf("Seconds(1) = %d, want %d", Seconds(1), CyclesPerSec)
	}
	if got := Micros(2.5).Micros(); got != 2.5 {
		t.Fatalf("round trip = %v, want 2.5", got)
	}
}

func TestEventOrdering(t *testing.T) {
	e := NewEnv(1)
	var order []int
	e.At(30, func() { order = append(order, 3) })
	e.At(10, func() { order = append(order, 1) })
	e.At(20, func() { order = append(order, 2) })
	// Equal timestamps fire in schedule order.
	e.At(20, func() { order = append(order, 4) })
	e.RunAll()
	want := []int{1, 2, 4, 3}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order = %v, want %v", order, want)
		}
	}
	if e.Now() != 30 {
		t.Fatalf("final time = %d, want 30", e.Now())
	}
}

func TestEventHeapRandomized(t *testing.T) {
	// Property: for random insertion orders, events pop in
	// nondecreasing-time order with FIFO tie-break.
	check := func(times []uint16) bool {
		e := NewEnv(1)
		var fired []Time
		for _, raw := range times {
			at := Time(raw)
			e.At(at, func() { fired = append(fired, at) })
		}
		e.RunAll()
		if len(fired) != len(times) {
			return false
		}
		for i := 1; i < len(fired); i++ {
			if fired[i] < fired[i-1] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestRunUntil(t *testing.T) {
	e := NewEnv(1)
	fired := 0
	e.At(100, func() { fired++ })
	e.At(200, func() { fired++ })
	e.Run(150)
	if fired != 1 {
		t.Fatalf("fired = %d, want 1", fired)
	}
	if e.Now() != 150 {
		t.Fatalf("now = %d, want 150", e.Now())
	}
}

func TestSchedulingInPastPanics(t *testing.T) {
	e := NewEnv(1)
	e.At(100, func() {
		defer func() {
			if recover() == nil {
				t.Error("expected panic scheduling in the past")
			}
		}()
		e.At(50, func() {})
	})
	e.RunAll()
}

func TestProcSleep(t *testing.T) {
	e := NewEnv(1)
	var wake []Time
	e.Go("sleeper", func(p *Proc) {
		p.Sleep(10)
		wake = append(wake, p.Now())
		p.Sleep(25)
		wake = append(wake, p.Now())
		p.Sleep(0) // no-op
		wake = append(wake, p.Now())
	})
	e.RunAll()
	if len(wake) != 3 || wake[0] != 10 || wake[1] != 35 || wake[2] != 35 {
		t.Fatalf("wake = %v, want [10 35 35]", wake)
	}
	if e.LiveProcs() != 0 {
		t.Fatalf("leaked %d procs", e.LiveProcs())
	}
}

func TestProcInterleaving(t *testing.T) {
	e := NewEnv(1)
	var trace []string
	e.Go("a", func(p *Proc) {
		trace = append(trace, "a0")
		p.Sleep(10)
		trace = append(trace, "a1")
		p.Sleep(20)
		trace = append(trace, "a2")
	})
	e.Go("b", func(p *Proc) {
		trace = append(trace, "b0")
		p.Sleep(15)
		trace = append(trace, "b1")
	})
	e.RunAll()
	want := []string{"a0", "b0", "a1", "b1", "a2"}
	if len(trace) != len(want) {
		t.Fatalf("trace = %v, want %v", trace, want)
	}
	for i := range want {
		if trace[i] != want[i] {
			t.Fatalf("trace = %v, want %v", trace, want)
		}
	}
}

func TestGateHandoff(t *testing.T) {
	e := NewEnv(1)
	g := NewGate(e)
	var trace []string
	e.Go("waiter", func(p *Proc) {
		g.Wait(p)
		trace = append(trace, "woken")
	})
	e.Go("waker", func(p *Proc) {
		p.Sleep(100)
		trace = append(trace, "waking")
		g.Wake()
	})
	e.RunAll()
	if len(trace) != 2 || trace[0] != "waking" || trace[1] != "woken" {
		t.Fatalf("trace = %v", trace)
	}
}

func TestGatePendingWake(t *testing.T) {
	e := NewEnv(1)
	g := NewGate(e)
	g.Wake() // nobody waiting: remembered
	g.Wake() // coalesced
	waits := 0
	e.Go("w", func(p *Proc) {
		g.Wait(p) // consumes pending, returns immediately
		waits++
		// Second wait must block until the explicit wake below.
		e.After(50, func() { g.Wake() })
		g.Wait(p)
		waits++
		if p.Now() != 50 {
			t.Errorf("second wait woke at %d, want 50", p.Now())
		}
	})
	e.RunAll()
	if waits != 2 {
		t.Fatalf("waits = %d, want 2", waits)
	}
}

func TestQueueFIFO(t *testing.T) {
	e := NewEnv(1)
	q := NewQueue[int](e)
	var got []int
	e.Go("consumer", func(p *Proc) {
		for i := 0; i < 5; i++ {
			got = append(got, q.Pop(p))
		}
	})
	e.Go("producer", func(p *Proc) {
		for i := 0; i < 5; i++ {
			p.Sleep(10)
			q.Push(i)
		}
	})
	e.RunAll()
	for i := 0; i < 5; i++ {
		if got[i] != i {
			t.Fatalf("got = %v", got)
		}
	}
}

func TestQueueTryPopAndCompaction(t *testing.T) {
	e := NewEnv(1)
	q := NewQueue[int](e)
	if _, ok := q.TryPop(); ok {
		t.Fatal("TryPop on empty queue succeeded")
	}
	const n = 1000
	for i := 0; i < n; i++ {
		q.Push(i)
	}
	for i := 0; i < n; i++ {
		v, ok := q.TryPop()
		if !ok || v != i {
			t.Fatalf("pop %d = %d,%v", i, v, ok)
		}
	}
	if q.Len() != 0 {
		t.Fatalf("len = %d, want 0", q.Len())
	}
}

func TestQueueMultipleWaiters(t *testing.T) {
	e := NewEnv(1)
	q := NewQueue[int](e)
	served := map[string]int{}
	for _, name := range []string{"c1", "c2"} {
		name := name
		e.Go(name, func(p *Proc) {
			for {
				v := q.Pop(p)
				if v < 0 {
					return
				}
				served[name]++
				p.Sleep(5)
			}
		})
	}
	e.Go("producer", func(p *Proc) {
		for i := 0; i < 10; i++ {
			q.Push(i)
			p.Sleep(2)
		}
		q.Push(-1)
		q.Push(-1)
	})
	e.RunAll()
	if served["c1"]+served["c2"] != 10 {
		t.Fatalf("served = %v, want 10 total", served)
	}
}

func TestDeterminism(t *testing.T) {
	// The same seed must produce an identical execution trace.
	run := func() []int64 {
		e := NewEnv(42)
		q := NewQueue[int](e)
		var trace []int64
		for w := 0; w < 3; w++ {
			e.Go("worker", func(p *Proc) {
				for {
					v := q.Pop(p)
					p.Sleep(Time(e.Rand().Intn(100) + 1))
					trace = append(trace, int64(v)*1_000_000+int64(p.Now()))
				}
			})
		}
		e.Go("gen", func(p *Proc) {
			for i := 0; i < 50; i++ {
				p.Sleep(e.Rand().Exp(30))
				q.Push(i)
			}
		})
		e.Run(Seconds(1))
		return trace
	}
	a, b := run(), run()
	if len(a) != len(b) {
		t.Fatalf("trace lengths differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("traces diverge at %d: %d vs %d", i, a[i], b[i])
		}
	}
}

func TestTeardownReleasesParkedProcs(t *testing.T) {
	e := NewEnv(1)
	q := NewQueue[int](e)
	for i := 0; i < 10; i++ {
		e.Go("stuck", func(p *Proc) { q.Pop(p) })
	}
	// Five short-lived procs leave five idle runners in the pool; they
	// start after the stuck ones, so no stuck proc can reuse them.
	for i := 0; i < 5; i++ {
		e.Go("brief", func(p *Proc) { p.Sleep(1) })
	}
	before := runtime.NumGoroutine()
	e.Run(100)
	if e.LiveProcs() != 0 {
		t.Fatalf("leaked %d procs after teardown", e.LiveProcs())
	}
	if after := runtime.NumGoroutine(); after != before {
		t.Fatalf("goroutines: %d before Run, %d after teardown", before, after)
	}
}

// TestPanicReachesRunCaller pins that a panic raised on a process
// coroutine — in its body, or in a plain callback the process dispatches
// inline while parking — re-panics out of Run with the original value.
func TestPanicReachesRunCaller(t *testing.T) {
	type boom struct{ where string }
	cases := []struct {
		name  string
		setup func(e *Env)
	}{
		{"proc body", func(e *Env) {
			e.Go("bad", func(p *Proc) {
				p.Sleep(10)
				panic(boom{"proc body"})
			})
		}},
		{"inline callback", func(e *Env) {
			e.At(5, func() { panic(boom{"inline callback"}) })
			// The sleeper parks at 0 and dispatches the t=5 callback
			// itself, on its own coroutine, before its t=10 resume.
			e.Go("parker", func(p *Proc) { p.Sleep(10) })
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			e := NewEnv(1)
			tc.setup(e)
			defer func() {
				if got := recover(); got != (boom{tc.name}) {
					t.Fatalf("Run panicked with %v, want %v", got, boom{tc.name})
				}
			}()
			e.RunAll()
		})
	}
}

func TestRNGDeterminism(t *testing.T) {
	a, b := NewRNG(7), NewRNG(7)
	for i := 0; i < 100; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatal("same-seed RNGs diverge")
		}
	}
	g := NewRNG(7)
	mean := Micros(10)
	var sum Time
	const n = 20000
	for i := 0; i < n; i++ {
		sum += g.Exp(mean)
	}
	avg := float64(sum) / n
	if avg < 0.95*float64(mean) || avg > 1.05*float64(mean) {
		t.Fatalf("Exp mean = %.0f, want ~%d", avg, mean)
	}
}

func TestStopAbandonsRun(t *testing.T) {
	e := NewEnv(1)
	fired := 0
	e.At(10, func() { fired++; e.Stop() })
	e.At(20, func() { fired++ })
	e.RunAll()
	if fired != 1 {
		t.Fatalf("fired = %d, want 1", fired)
	}
}
