package sim

import "repro/internal/simcheck"

// This file holds the simulator-kernel invariant oracles (see package
// simcheck). All of them are observational: they never draw randomness
// and never schedule events, so a checked run dispatches the identical
// event sequence as an unchecked one.
//
// Oracles here:
//
//	sim/dispatch-order  events leave the wheel in strict (at, seq) order
//	sim/lost-wakeup     every parked proc is reachable from a registered
//	                    waiter slot or a pending wheel event at teardown
//	sim/wheel-count     wheel count matches the events actually filed
//	sim/wheel-bitmap    occupancy bitmaps agree with bucket contents

// checkDispatch verifies monotone (at, seq) dispatch. The wheel's
// ordering argument (wheel.go) says dispatch is bit-identical to the
// retired heap's order; this oracle re-proves it on every event of a
// checked run, whether the loop or a parking process dispatches it.
func (e *Env) checkDispatch(at Time, seq uint64) {
	if at < e.lastAt || (at == e.lastAt && seq <= e.lastSeq) {
		simcheck.Fail(simcheck.New("sim/dispatch-order",
			"event dispatched out of (at, seq) order").
			With("at", int64(at)).With("seq", seq).
			With("prevAt", int64(e.lastAt)).With("prevSeq", e.lastSeq))
	}
	e.lastAt, e.lastSeq = at, seq
}

// MarkBlocked records that w is parked on the named primitive (a gate,
// a queue, a QP slot list, the frame-waiter list, ...). Primitives that
// hold raw waiter lists call it just before parking; the matching wake
// path calls MarkUnblocked. No-ops unless the environment was built
// with oracles on, so unchecked runs pay one branch.
func (e *Env) MarkBlocked(w Waiter, where string) {
	if e.checked {
		e.blocked[w] = where
	}
}

// MarkUnblocked removes w from the blocked-waiter registry; call it
// when a wake-up for w has been scheduled (w is then reachable from the
// wheel instead).
func (e *Env) MarkUnblocked(w Waiter) {
	if e.checked {
		delete(e.blocked, w)
	}
}

// auditTeardown is the no-lost-wakeup oracle, run when a simulation
// finishes (Run/RunAll) before parked processes are force-unwound: a
// process still parked at teardown must be waiting somewhere a future
// event could find it — registered in a waiter slot, or directly
// targeted by a pending wheel event. A parked process with neither is a
// lost wakeup: it would have hung a real system. The registry is not
// cleared here — processes legitimately stay blocked across back-to-back
// Run calls on one environment.
func (e *Env) auditTeardown() {
	for p := e.parkedHead; p != nil; p = p.parkNext {
		if _, ok := e.blocked[p]; ok {
			continue
		}
		if e.q.hasPendingResume(p) {
			continue
		}
		simcheck.Fail(simcheck.New("sim/lost-wakeup",
			"parked process unreachable from any waiter slot or pending event").
			With("proc", p.name).With("now", int64(e.now)))
	}
	e.CheckWheel()
}

// hasPendingResume reports whether any pending event targets p. Audit
// only — O(pending events). Drained slots have proc nil'd, so walking
// full bucket slices (including the partially-drained head bucket) is
// safe.
func (w *wheel) hasPendingResume(p *Proc) bool {
	if w.hasNext && w.next.proc == p {
		return true
	}
	for l := range w.levels {
		for _, bkt := range w.levels[l].buckets {
			for i := range bkt {
				if bkt[i].proc == p {
					return true
				}
			}
		}
	}
	return false
}

// CheckWheel audits the timing wheel's structure: the pending count
// equals the events actually filed (cache slot + bucket entries, net of
// the partially-drained head bucket), every occupancy bit agrees with
// its bucket, and every summary bit agrees with its occupancy word.
// Run from auditTeardown; exported so tests can call it mid-run.
func (e *Env) CheckWheel() {
	w := &e.q
	n := 0
	if w.hasNext {
		n++
	}
	for l := range w.levels {
		lv := &w.levels[l]
		for bi, bkt := range lv.buckets {
			pending := len(bkt)
			if l == 0 && bi == w.headIdx && w.head > 0 {
				pending -= w.head
			}
			n += pending
			occ := lv.occ[bi>>6]&(1<<(uint(bi)&63)) != 0
			if (pending > 0) != occ {
				simcheck.Fail(simcheck.New("sim/wheel-bitmap",
					"occupancy bit disagrees with bucket contents").
					With("level", l).With("bucket", bi).
					With("pending", pending).With("occ", occ))
			}
		}
		for wi, word := range lv.occ {
			if (word != 0) != (lv.sum&(1<<uint(wi)) != 0) {
				simcheck.Fail(simcheck.New("sim/wheel-bitmap",
					"summary bit disagrees with occupancy word").
					With("level", l).With("word", wi))
			}
		}
	}
	if n != w.count {
		simcheck.Fail(simcheck.New("sim/wheel-count",
			"pending-event count disagrees with filed events").
			With("count", w.count).With("filed", n))
	}
}
