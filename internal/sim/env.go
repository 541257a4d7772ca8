package sim

import (
	"fmt"

	"repro/internal/simcheck"
)

// event is a scheduled callback. Events with equal times fire in schedule
// order (seq), which is what makes runs deterministic. Process start and
// wake-up events — the overwhelmingly common case — carry the target
// process in proc instead of a closure in fn, keeping the hottest
// scheduling path allocation-free.
type event struct {
	at   Time
	seq  uint64
	fn   func()
	proc *Proc
}

// Env is a simulation environment: a virtual clock, an event queue (a
// hierarchical timing wheel, see wheel.go), and the machinery that runs
// processes one at a time. An Env is not safe for concurrent use; all
// interaction must happen from the goroutine that calls Run or from
// processes the Env itself is driving.
type Env struct {
	now Time
	q   wheel
	seq uint64
	rng *RNG

	stopped     bool
	nProcs      int     // live (not yet terminated) processes, for leak detection
	parkedHead  *Proc   // intrusive list of parked processes, for teardown
	freeRunners *runner // idle process coroutines, ready for the next Go
	freeProcs   *Proc   // recycled process objects, linked through parkNext

	// handoff is the process a parker popped from the queue but could
	// not run itself; runProcEvent resumes it once the parker yields.
	handoff *Proc

	// until is the bound of the run in progress; a parking process
	// (proc.go) must not dispatch past it on the loop's behalf.
	until Time

	// Invariant-oracle state (check.go). checked is latched at
	// construction from simcheck.On(), so arming must happen before the
	// environment is built; blocked is the waiter registry for the
	// lost-wakeup audit; lastAt/lastSeq back the dispatch-order oracle.
	checked bool
	blocked map[Waiter]string
	lastAt  Time
	lastSeq uint64
}

// NewEnv returns an environment with its clock at zero, seeded with seed.
func NewEnv(seed int64) *Env {
	e := &Env{rng: NewRNG(seed)}
	if simcheck.On() {
		e.checked = true
		e.blocked = make(map[Waiter]string)
	}
	return e
}

// Now returns the current simulated time.
func (e *Env) Now() Time { return e.now }

// Rand returns the run's deterministic random source.
func (e *Env) Rand() *RNG { return e.rng }

// At schedules fn to run at absolute time at. Scheduling in the past is a
// bug in the caller and panics.
func (e *Env) At(at Time, fn func()) {
	if at < e.now {
		panic(fmt.Sprintf("sim: scheduling event at %v before now %v", at, e.now))
	}
	e.seq++
	e.q.push(event{at: at, seq: e.seq, fn: fn})
}

// After schedules fn to run d cycles from now.
func (e *Env) After(d Time, fn func()) { e.At(e.now+d, fn) }

// Stop terminates the event loop after the current event completes.
// Remaining events are discarded; parked processes are abandoned (their
// coroutines are stopped and exit).
func (e *Env) Stop() { e.stopped = true }

// Run executes events until the clock would pass until, the queue drains,
// or Stop is called. It returns the final simulated time.
func (e *Env) Run(until Time) Time {
	e.loop(until)
	if e.now < until && !e.stopped {
		e.now = until
	}
	e.releaseParked()
	return e.now
}

// RunAll executes events until the queue drains or Stop is called.
func (e *Env) RunAll() Time {
	e.loop(maxTime)
	e.releaseParked()
	return e.now
}

func (e *Env) loop(until Time) {
	e.until = until
	e.dispatch(nil)
}

// dispatch pops and runs events in (at, seq) order until the run bound,
// an empty queue, or Stop. The event loop calls it with self == nil and
// hands every proc event to runProcEvent. A parking process calls it
// with itself: plain callbacks run inline, its own resume returns true,
// and any other process's event is left in e.handoff (returning false)
// for the loop to resume once the parker yields.
func (e *Env) dispatch(self *Proc) bool {
	// ev is hoisted out of the loop so the manual popUntil inline below
	// costs no per-iteration zeroing on the levelled (cache-miss) path.
	var ev event
	for !e.stopped {
		// wheel.popUntil, manually inlined (it sits just past the
		// inliner's budget, and this loop runs once per event): a cache
		// hit is a branch and a copy; every other case — empty cache,
		// cached event past until, levelled events — is popSlow's.
		if e.q.hasNext && e.q.next.at <= e.until {
			ev = e.q.next
			e.q.hasNext = false
			e.q.count--
		} else {
			var ok bool
			if ev, ok = e.q.popSlow(e.until); !ok {
				break
			}
		}
		if e.checked {
			e.checkDispatch(ev.at, ev.seq)
		}
		e.now = ev.at
		p := ev.proc
		switch {
		case p == nil:
			ev.fn()
		case self == nil:
			e.runProcEvent(p)
		case p == self:
			e.unlinkParked(p)
			return true
		default:
			e.handoff = p
			return false
		}
	}
	return false
}

// Pending reports the number of scheduled events, for tests.
func (e *Env) Pending() int { return e.q.count }

// MaxPending reports the high-water mark of the pending-event count over
// the environment's lifetime: the queue depth the scheduler actually had
// to absorb, surfaced by the -qdepth flag of the shipped binaries. The
// wheel tracks the mark on its slow push path only (keeping the hot path
// inlinable), so a queue that never held two events at once is
// reconstructed here: seq counts every push, so seq > 0 with a zero mark
// means the depth peaked at exactly 1.
func (e *Env) MaxPending() int {
	if e.q.maxCount == 0 && e.seq > 0 {
		return 1
	}
	return e.q.maxCount
}

// LiveProcs reports the number of processes that have started but not yet
// terminated (parked or running), for leak detection in tests.
func (e *Env) LiveProcs() int { return e.nProcs }
