package sched

import (
	"repro/internal/paging"
	"repro/internal/rdma"
	"repro/internal/sim"
	"repro/internal/trace"
)

// Unithread is the per-request execution context (§3.2): it carries the
// request, implements workload.Ctx (and therefore paging.Thread), and
// embodies the system's wait policy in WaitPage. One simulated process
// backs each unithread; while it is blocked on a fetch under the yield
// policy, its worker runs other unithreads.
type Unithread struct {
	sched  *Scheduler
	worker *Worker
	proc   *sim.Proc
	gate   *sim.Gate // parked here whenever not scheduled on a core
	req    *Request

	runStart  sim.Time // when last placed on a core (preemption quantum)
	noPreempt int      // >0 inside application critical sections

	// ferr is the error (if any) delivered by the paging layer to a
	// fetch-wait callback: the pending fetch was abandoned after bounded
	// retries. WaitPage re-raises it as a *FetchError panic.
	ferr error
	// bwFired is set by the busy-wait fetch callback for the current
	// round of WaitPage.
	bwFired bool

	// bodyFn is the bound body method value, created once per context so
	// recycled unithreads do not re-allocate the closure on every spawn.
	bodyFn func(*sim.Proc)
	// onReadyFn and onBusyFn are the bound yield-mode and busy-wait
	// fetch-completion callbacks, likewise created once so the fault
	// path stays allocation-free.
	onReadyFn, onBusyFn func(error)
	// finished is set just before the final core handoff; the worker
	// recycles the context once it regains the core.
	finished bool
}

// CriticalEnter implements workload.Ctx: preemption is disabled until
// the matching CriticalExit.
func (u *Unithread) CriticalEnter() { u.noPreempt++ }

// CriticalExit implements workload.Ctx.
func (u *Unithread) CriticalExit() {
	if u.noPreempt <= 0 {
		panic("sched: CriticalExit without CriticalEnter")
	}
	u.noPreempt--
}

// Proc implements paging.Thread.
func (u *Unithread) Proc() *sim.Proc { return u.proc }

// QP implements paging.Thread: faults are issued on the carrying
// worker's queue pair to the page's owning memory node.
func (u *Unithread) QP(node int) *rdma.QP { return u.worker.qps[node] }

// Rand implements workload.Ctx.
func (u *Unithread) Rand() *sim.RNG { return u.sched.env.Rand() }

// Request exposes the request record (read-only use by instrumentation).
func (u *Unithread) Request() *Request { return u.req }

// charge consumes application/handler CPU on the current core.
func (u *Unithread) charge(d sim.Time) {
	if d <= 0 {
		return
	}
	u.proc.Sleep(d)
	u.req.CPU += d
	u.worker.busyCycles += int64(d)
	u.sched.cpuCycles += int64(d)
}

// Compute implements workload.Ctx. Under IPI-based preemption
// (Shinjuku-style), compute can be interrupted anywhere: the charge is
// sliced at quantum boundaries and each expiry pays the interrupt cost —
// no probes required, which is exactly the trade the paper measured
// against compiler/manual cooperation (§5, "both IPI and manually
// enforced cooperation").
func (u *Unithread) Compute(d sim.Time) {
	s := u.sched
	if !s.cfg.Preempt || !s.cfg.PreemptIPI || u.noPreempt > 0 {
		u.charge(d)
		return
	}
	for d > 0 {
		remaining := s.cfg.Quantum - (u.proc.Now() - u.runStart)
		if remaining <= 0 {
			u.charge(s.cfg.Costs.IPICost)
			u.preemptNow()
			continue
		}
		step := d
		if step > remaining {
			step = remaining
		}
		u.charge(step)
		d -= step
	}
}

// body is the unithread's lifetime: run the handler, send the response,
// retire.
func (u *Unithread) body(p *sim.Proc) {
	u.proc = p
	u.gate.Wait(p) // first schedule by the worker
	s := u.sched
	now := p.Now()
	u.req.Started = now
	u.req.QueueWait += now - u.req.Arrive
	u.runStart = now

	c := &s.cfg.Costs
	if c.KernelNetExtra > 0 {
		u.charge(c.KernelNetExtra) // kernel RX path (Hermit)
	}
	if s.cfg.Preempt {
		u.charge(c.PreemptPerRequest)
	}
	if c.JitterProb > 0 && s.env.Rand().Bool(c.JitterProb) {
		// OS scheduling noise: the core is stolen for a while.
		p.Sleep(s.env.Rand().Exp(c.JitterMean))
	}

	resp, respBytes, aborted := u.runHandler()
	if aborted {
		// A page this request demanded could not be fetched within the
		// retry budget. Fail the request — with a (small) error response
		// so client-side transport state is not wedged — instead of
		// hanging the unithread forever.
		s.FaultAborts.Inc()
		u.req.Failed = true
		u.noPreempt = 0 // any abandoned critical section dies with the request
		resp, respBytes = nil, abortRespBytes
	}
	u.sendResponse(resp, respBytes)

	u.req.Finished = p.Now()
	s.Completed.Inc()
	if s.OnComplete != nil {
		s.OnComplete(u.req)
	}
	u.finished = true
	u.worker.runGate.Wake() // return the core; the unithread retires
}

// abortRespBytes is the wire size of the error response sent for a
// request aborted by fetch failure.
const abortRespBytes = 64

// runHandler executes the application handler, converting a *FetchError
// panic (a demand fetch abandoned after bounded retries — the simulated
// SIGBUS) into an aborted=true return. Any other panic propagates.
func (u *Unithread) runHandler() (resp any, respBytes int, aborted bool) {
	defer func() {
		if r := recover(); r != nil {
			if _, ok := r.(*paging.FetchError); !ok {
				panic(r)
			}
			aborted = true
		}
	}()
	resp, respBytes = u.sched.handler(u, u.req.Pkt.Payload)
	return
}

// sendResponse transmits the reply. Under SyncTx the unithread
// busy-waits for the TX completion on its worker's CQ (DiLOS behaviour,
// and the Figure 9 ablation); under DelegatedTx the completion is routed
// to the dispatcher, which recycles the buffer (Figure 6).
func (u *Unithread) sendResponse(resp any, respBytes int) {
	s, w := u.sched, u.worker
	c := &s.cfg.Costs
	u.charge(c.TxPost)
	if c.KernelNetExtra > 0 {
		u.charge(c.KernelNetExtra) // kernel TX path (Hermit)
	}
	pkt := u.req.Pkt
	pkt.Payload = resp
	pkt.Size = respBytes
	pkt.Ctx = u.req
	w.txq.Send(pkt)

	if s.cfg.Tx == DelegatedTx {
		return // buffer recycled by the dispatcher on completion
	}
	// Busy-wait for the TX completion.
	start := u.proc.Now()
	for {
		if w.txCQ.PollInto(w.txBuf[:]) > 0 {
			break
		}
		w.txGate.Wait(u.proc)
	}
	span := u.proc.Now() - start
	u.req.BusyWait += span
	s.busyWaitCycles += int64(span)
	s.Trace.Span(trace.KindBusyWait, w.id, "busy-wait tx", start, u.proc.Now(), nil)
	s.pool.Release(u.req.Buf)
	u.req.Buf = nil
}

// Probe implements workload.Ctx: the Concord-style preemption check.
// Free unless the scheduler is preemptive; never present in the fault
// path, so busy-waiting is never preempted — the paper's §2.3
// observation falls out of the structure.
func (u *Unithread) Probe() {
	s := u.sched
	if !s.cfg.Preempt || s.cfg.PreemptIPI || u.noPreempt > 0 {
		return // no probes in IPI mode or inside critical sections
	}
	u.charge(s.cfg.Costs.PreemptProbe)
	if u.proc.Now()-u.runStart < s.cfg.Quantum {
		return
	}
	u.preemptNow()
}

// preemptNow switches the unithread out and re-queues it centrally
// (Shinjuku-SQ semantics); it returns once some worker re-schedules it.
func (u *Unithread) preemptNow() {
	s := u.sched
	u.req.Preemptions++
	u.charge(s.cfg.Costs.PreemptSwitch)
	requeued := u.proc.Now()
	s.central.Push(workItem{resumed: u})
	s.wakeDispatchers()
	u.worker.runGate.Wake()
	u.gate.Wait(u.proc) // until some worker re-schedules us
	u.req.QueueWait += u.proc.Now() - requeued
	u.runStart = u.proc.Now()
}

// Block implements workload.Ctx. Under the yield policy the unithread
// returns the core to its worker until woken (like a page fault, Figure
// 5); under busy-wait it spins on the core — and, when the scheduler is
// preemptive, the spin loop carries probes, so a spinning request can be
// preempted (Concord instruments all application code, including locks).
func (u *Unithread) Block(enqueue func(wake func())) {
	s, w := u.sched, u.worker
	c := &s.cfg.Costs
	woken := false
	switch s.cfg.Wait {
	case Yield:
		enqueue(func() {
			woken = true
			u.markReady()
		})
		for !woken {
			u.charge(c.UnithreadSwitch)
			w.runGate.Wake()
			u.gate.Wait(u.proc)
		}
	case BusyWait:
		if !s.cfg.Preempt {
			enqueue(func() {
				woken = true
				u.gate.Wake()
			})
			start := u.proc.Now()
			for !woken {
				u.gate.Wait(u.proc)
			}
			span := u.proc.Now() - start
			u.req.BusyWait += span
			s.busyWaitCycles += int64(span)
			return
		}
		// Preemptive busy-wait: spin with probes so the quantum can expire
		// mid-spin (otherwise lock convoys could wedge every worker).
		enqueue(func() { woken = true })
		for !woken {
			spinStart := u.proc.Now()
			u.proc.Sleep(c.PreemptProbe + 250)
			span := u.proc.Now() - spinStart
			u.req.BusyWait += span
			s.busyWaitCycles += int64(span)
			if u.proc.Now()-u.runStart >= s.cfg.Quantum {
				u.preemptNow()
			}
		}
	}
}

// WaitPage implements paging.Thread: the heart of the reproduction.
// Busy-wait: the unithread keeps its core, polling the worker's fetch CQ
// until its page is resident. Yield: it switches back to the worker and
// is marked ready when the fetch completes (Figure 5, steps 4–9).
func (u *Unithread) WaitPage(sp *paging.Space, vpn int64) {
	s, w := u.sched, u.worker
	c := &s.cfg.Costs
	u.req.Faults++
	u.charge(s.mgr.Config().FaultEntryCost + c.KernelFaultExtra)
	start := u.proc.Now()
	s.Trace.Instant(trace.KindFetch, w.id, "fault", start)

	demand := true
	u.ferr = nil
	switch s.cfg.Wait {
	case Yield:
		for u.ferr == nil && !sp.Resident(vpn) {
			if s.mgr.RequestPage(u, sp, vpn, u.onReadyFn, demand) {
				break
			}
			demand = false
			// ⑤ yield to the worker; ⑨ it switches back when ready.
			u.charge(c.UnithreadSwitch)
			w.runGate.Wake()
			u.gate.Wait(u.proc)
		}
	case BusyWait:
		// One callback serves every round, and no round leaves it
		// registered behind: paging runs a fetch's waiters at the
		// completion that maps the page (or that ends the write-back or
		// abandons the fetch the round waited on), so bwFired and
		// residency become true together and the inner loop exits only
		// after the callback has fired.
		for u.ferr == nil && !sp.Resident(vpn) {
			u.bwFired = false
			if s.mgr.RequestPage(u, sp, vpn, u.onBusyFn, demand) {
				break
			}
			demand = false
			for !u.bwFired && !sp.Resident(vpn) {
				if n := w.cq.PollInto(w.cqBuf[:16]); n > 0 {
					for _, comp := range w.cqBuf[:n] {
						s.mgr.CompleteOn(comp.Cookie.(*paging.Fetch), comp.Err, comp.QP)
					}
					continue
				}
				w.cqGate.Wait(u.proc)
			}
		}
		span := u.proc.Now() - start
		u.req.BusyWait += span
		s.busyWaitCycles += int64(span)
		s.Trace.Span(trace.KindBusyWait, w.id, "busy-wait fetch", start, u.proc.Now(), nil)
	}

	u.req.RDMAWait += u.proc.Now() - start
	ferr := u.ferr
	u.ferr = nil
	if ferr != nil {
		panic(ferr) // *FetchError; body's runHandler aborts the request
	}
	u.charge(s.mgr.Config().MapCost)
}

// onReady is the yield-mode fetch-completion callback registered with
// the paging layer, via the pre-bound onReadyFn closure: record the
// outcome and mark the unithread runnable.
func (u *Unithread) onReady(err error) {
	u.ferr = err
	u.markReady()
}

// onBusy is the busy-wait fetch-completion callback, via the pre-bound
// onBusyFn closure: record the outcome and wake the unithread polling
// its worker's fetch CQ.
func (u *Unithread) onBusy(err error) {
	u.bwFired = true
	u.ferr = err
	u.worker.cqGate.Wake()
}

// markReady moves the unithread to its worker's ready list (step ⑧→⑨
// of Figure 5).
func (u *Unithread) markReady() {
	w := u.worker
	w.ready.PushBack(readyItem{u: u})
	if w.idle {
		w.idleGate.Wake()
	}
}
