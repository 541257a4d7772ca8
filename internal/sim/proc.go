//go:build go1.23

package sim

import "iter"

// Proc is a simulated process: a coroutine that runs strictly one at a
// time under the event loop's control. A Proc may block on simulated time
// (Sleep) or on synchronization primitives (Gate, Queue); while it is
// blocked, other events and processes run. This is how unithreads,
// workers, the dispatcher, and other flows that genuinely block
// mid-traversal are expressed; purely timer/event-driven loops should use
// the cheaper tier-1 Task (task.go) instead, which never leaves the
// event loop.
//
// Each process runs on a runner: one iter.Pull coroutine that executes
// process bodies back to back. Parking yields the coroutine; the event
// loop's runProcEvent is the only code that resumes one, so at most one
// process (or the loop) executes at any moment and no user-level locking
// is needed anywhere in the simulator. When a process terminates, its
// runner returns to the environment's free list and the next Go reuses
// it; terminated Proc objects are recycled the same way (freeProcs), so
// steady-state spawning is allocation-free.
//
// Before yielding, a parking process dispatches upcoming events itself
// (dispatch): plain callbacks run inline, and if its own resume comes
// next, park returns without a coroutine switch at all (the Sleep and
// Gate.Wake→Wait shapes). If another process's event comes next, that
// process is left in Env.handoff and the loop resumes it as soon as the
// parker yields. Dispatch order is bit-identical either way: the parker
// consumes exactly the events the loop would have popped next.
type Proc struct {
	env  *Env
	name string
	r    *runner
	body func(*Proc) // pending body between Go and the start event
	done bool

	// Intrusive doubly-linked list of currently-parked processes, for
	// teardown. Replaces a map so the hot park/resume path stays free of
	// hashing. parkNext doubles as the freeProcs link once terminated.
	parkPrev, parkNext *Proc
	parked             bool
}

// abortSignal is panicked inside a parked process when the environment
// tears down, unwinding the process body. Process bodies must not park
// again from deferred functions.
type abortSignal struct{}

// runner is a reusable process executor: one coroutine that runs the
// body it is handed, returns itself to the environment's free list, and
// yields until the next body arrives. Runners are pooled per Env
// (freeRunners); releaseParked stops the pooled ones when a run
// finishes so idle coroutines never outlive the simulation.
type runner struct {
	env    *Env
	p      *Proc // process being run, handed over by startProc
	resume func() (struct{}, bool)
	stop   func()
	yield  func(struct{}) bool
	next   *runner // free-list link
}

// Go creates a process that will begin executing fn at the current
// simulated time (after already-scheduled events at this time). The
// Proc object comes from the environment's free list when one is
// available; holding a *Proc past its termination is therefore only
// valid for identity-free uses.
func (e *Env) Go(name string, fn func(p *Proc)) *Proc {
	p := e.freeProcs
	if p != nil {
		e.freeProcs = p.parkNext
		*p = Proc{env: e, name: name, body: fn}
	} else {
		p = &Proc{env: e, name: name, body: fn}
	}
	e.nProcs++
	e.seq++
	e.q.push(event{at: e.now, seq: e.seq, proc: p})
	return p
}

// runProcEvent dispatches a proc-carrying event — the start of a new
// process or the resumption of a parked one — and then every process the
// parker left in e.handoff. It is the only code that resumes a process.
func (e *Env) runProcEvent(p *Proc) {
	for p != nil {
		if p.body != nil {
			e.startProc(p)
		} else if p.done {
			panic("sim: resuming terminated proc " + p.name)
		} else {
			e.unlinkParked(p)
		}
		p.r.resume()
		p, e.handoff = e.handoff, nil
	}
}

// startProc binds a pooled (or new) runner to p; the caller resumes it.
func (e *Env) startProc(p *Proc) {
	r := e.freeRunners
	if r != nil {
		e.freeRunners = r.next
		r.next = nil
	} else {
		r = &runner{env: e}
		r.resume, r.stop = iter.Pull(r.run)
	}
	r.p = p
	p.r = r
}

// run is the runner coroutine: it executes bodies until stopped, either
// while idle on the free list or (through abortSignal) inside a parked
// body.
func (r *runner) run(yield func(struct{}) bool) {
	r.yield = yield
	e := r.env
	for {
		p := r.p
		aborted := r.runBody()
		r.p = nil
		e.nProcs--
		e.releaseProc(p)
		if aborted {
			return
		}
		r.next = e.freeRunners
		e.freeRunners = r
		if !yield(struct{}{}) {
			return
		}
	}
}

// runBody executes one process body, converting the teardown abort into
// a normal return. Any other panic propagates out of the coroutine and
// resurfaces from resume in the event loop, and from there out of Run.
func (r *runner) runBody() (aborted bool) {
	defer func() {
		if rec := recover(); rec != nil {
			if _, ok := rec.(abortSignal); !ok {
				panic(rec)
			}
			aborted = true
		}
	}()
	p := r.p
	fn := p.body
	p.body = nil
	fn(p)
	return false
}

// releaseProc recycles a terminated process object onto the free list.
// done stays set so a stale resume still trips the sanity check.
func (e *Env) releaseProc(p *Proc) {
	*p = Proc{env: e, done: true, parkNext: e.freeProcs}
	e.freeProcs = p
}

// Name returns the process's debug name.
func (p *Proc) Name() string { return p.name }

// Env returns the owning environment.
func (p *Proc) Env() *Env { return p.env }

// Now returns the current simulated time.
func (p *Proc) Now() Time { return p.env.now }

// park suspends the process until some event resumes it. The caller must
// have arranged for a wake-up first. See the type comment for the inline
// dispatch taken before the coroutine actually yields.
func (p *Proc) park() {
	e := p.env
	p.parked = true
	p.parkNext = e.parkedHead
	if e.parkedHead != nil {
		e.parkedHead.parkPrev = p
	}
	// p.parkPrev is already nil: unlinkParked zeroed it on the last
	// resume, and Go/releaseProc reset fresh and recycled procs.
	e.parkedHead = p

	if e.dispatch(p) {
		return // own resume came next: no coroutine switch
	}
	if !p.r.yield(struct{}{}) {
		panic(abortSignal{})
	}
}

// unlinkParked removes p from the parked list.
func (e *Env) unlinkParked(p *Proc) {
	if !p.parked {
		return
	}
	p.parked = false
	if p.parkPrev != nil {
		p.parkPrev.parkNext = p.parkNext
	} else if e.parkedHead == p {
		e.parkedHead = p.parkNext
	}
	if p.parkNext != nil {
		p.parkNext.parkPrev = p.parkPrev
	}
	p.parkPrev, p.parkNext = nil, nil
}

// scheduleResume arranges for p to be resumed at time at. It is the
// building block for all wake-ups: primitives never resume a process
// inline (that would nest processes); they always go through an event.
// The event carries the process directly — no closure is allocated on
// this path, which every Sleep, Gate.Wake, and Queue.Push takes.
func (e *Env) scheduleResume(p *Proc, at Time) {
	if at < e.now {
		panic("sim: scheduling resume in the past for " + p.name)
	}
	e.seq++
	e.q.push(event{at: at, seq: e.seq, proc: p})
}

// Park blocks the process until some event resumes it via ScheduleResume.
// It is the extension point for custom synchronization primitives in
// other packages (QP slot waits, fault-completion waits): the caller must
// have registered itself somewhere a future event will find it.
func (p *Proc) Park() { p.park() }

// ScheduleResume arranges for a parked process to be resumed at time at.
// The companion of Park for building custom primitives.
func (e *Env) ScheduleResume(p *Proc, at Time) { e.scheduleResume(p, at) }

// Yield parks the process behind every event already scheduled at the
// current time: it files its own resumption at now and parks, so pending
// same-timestamp events dispatch first, in order. A Yield whose own
// resume comes next returns without a coroutine switch — it is the
// cheapest possible park/resume boundary. The scheduler's flat
// unithread tier brackets each inline execution segment with Yields to
// reproduce, one for one, the event-queue boundaries a goroutine-backed
// unithread's handoff gates would have introduced, which keeps
// same-timestamp dispatch order bit-identical across the two tiers.
func (p *Proc) Yield() {
	e := p.env
	if e.skipAhead(e.now) {
		return // nothing pending at this instant: the park is a no-op
	}
	e.scheduleResume(p, e.now)
	p.park()
}

// Sleep blocks the process for d cycles of simulated time. In the system
// model, a worker or unithread sleeping represents the CPU core being
// busy for that long.
func (p *Proc) Sleep(d Time) {
	if d <= 0 {
		return
	}
	e := p.env
	at := e.now + d
	if e.skipAhead(at) {
		return
	}
	e.scheduleResume(p, at)
	p.park()
}

// skipAhead is the clock-advance fast path for Sleep and Yield: when
// every pending event is strictly later than the caller's wake time,
// the event loop would pop the caller's own resume next — the resume
// would carry the highest sequence number, so an already-pending event
// would have to beat `at` outright to run first. In that case just
// advance the clock and keep running, skipping the wheel push/pop and
// the park entirely. Relative order of pending events is untouched, so
// schedules are bit-identical with and without the fast path. Disabled
// in checked builds so the wheel and dispatch-order oracles observe
// every transition, and within a horizon-bounded Run a process never
// advances past `until` (it must park and stay parked, exactly as the
// slow path leaves it).
func (e *Env) skipAhead(at Time) bool {
	if e.checked || e.stopped || at > e.until || !e.q.peekBeyond(at) {
		return false
	}
	e.now = at
	return true
}

// releaseParked stops every still-parked process and every pooled
// runner. Called when a run finishes so that repeated simulations
// (benchmark sweeps) do not leak coroutines. The common
// nothing-to-release case — no process ever parked, no runner pooled —
// inlines into Run/RunAll; the stop loops live in the slow half.
func (e *Env) releaseParked() {
	e.foldMaxPending()
	if e.checked {
		e.auditTeardown()
	}
	if e.parkedHead != nil || e.freeRunners != nil {
		e.releaseParkedSlow()
	}
}

func (e *Env) releaseParkedSlow() {
	for e.parkedHead != nil {
		p := e.parkedHead
		e.unlinkParked(p)
		p.r.stop()
	}
	for r := e.freeRunners; r != nil; r = r.next {
		r.stop()
	}
	e.freeRunners = nil
}
