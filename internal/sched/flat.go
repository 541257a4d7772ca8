package sched

import (
	"encoding/binary"

	"repro/internal/paging"
	"repro/internal/rdma"
	"repro/internal/sim"
	"repro/internal/simcheck"
	"repro/internal/trace"
	"repro/internal/workload"
)

// This file implements the flat unithread tier: requests whose app
// provides a workload.StepHandler execute inline on the worker's own
// process, with no per-request coroutine and no gate ping-pong. Spawn is
// a struct reset from a free list, a fault parks an 80-byte StepFrame
// instead of a stack, completion re-queues the continuation on the
// worker's ready ring, and retire is a plain call — the paper's §3.2
// cost argument made literal.
//
// The tier stays because it is still measurably cheaper than a
// coroutine-backed unithread: BenchmarkSchedRequestRoundTrip (8 demand
// faults per request) runs 6.5 µs per op flat against 11.2 µs on the
// goroutine tier (2-core Xeon @ 2.1 GHz, go1.24, medians of 5 pairs),
// and the simbench array-skew run takes 0.58 s with it against 0.64 s
// with the flat tier switched off.
//
// Determinism contract. The goroutine tier crosses the event queue at
// fixed points: the unithread-start event pushed by spawn, one resume
// push per fault park/resume round, and the run-gate wake that returns
// the core on yield or retire. Every flat execution segment is bracketed
// by Proc.Yield calls standing in for exactly those pushes — an opening
// Yield where the goroutine tier pushed the start/resume event, a
// closing Yield where the unithread pushed the worker's run-gate wake —
// so the wheel sees the same number of events in the same (at, seq)
// order and same-timestamp interleavings are bit-identical across tiers.
// Charging order, RNG draws, paging counters (via Space.TryPage's retry
// distinction), trace spans, and abort semantics are mirrored line for
// line against unithread.go; the differential tests pin the equivalence.

// Flat continuation lifecycle states (oracle sched/flat-state).
const (
	flatRunning = iota // on core, inside a bracketed segment
	flatWaiting        // parked on a pending fetch completion
	flatReady          // fetch done, queued on the worker's ready ring
)

// flatUnithread is the per-request record of the flat tier. It is the
// whole continuation: StepFrame plus fault bookkeeping, recycled through
// Scheduler.freeFlats.
type flatUnithread struct {
	sched  *Scheduler
	worker *Worker
	req    *Request
	frame  workload.StepFrame

	noPreempt int // critical-section depth (flat tier never preempts)

	// Fault-in-progress bookkeeping, the analogue of the goroutine
	// WaitPage's locals: the faulting page, when the fault began, whether
	// the next RequestPage round still counts as the demand access, and
	// the completion error (if the fetch was abandoned).
	faultSp     *paging.Space
	faultVpn    int64
	faultStart  sim.Time
	faultDemand bool
	ferr        error

	// retry marks that the next matching TryPage is the re-probe after a
	// completed fault (touch-only accounting; see Space.TryPage).
	retry bool

	state int  // flatRunning/flatWaiting/flatReady (oracle)
	done  bool // set by finishFlat; runFlat retires after the span

	// onReadyFn is the bound completion callback, created once per
	// context so the fault path stays allocation-free across recycles.
	onReadyFn func(error)
}

// newFlat takes a recycled flat context (or builds one) for a dispatched
// request.
func (s *Scheduler) newFlat(w *Worker, req *Request) *flatUnithread {
	if n := len(s.freeFlats); n > 0 {
		f := s.freeFlats[n-1]
		s.freeFlats[n-1] = nil
		s.freeFlats = s.freeFlats[:n-1]
		orf := f.onReadyFn
		*f = flatUnithread{sched: s, worker: w, req: req, onReadyFn: orf}
		return f
	}
	f := &flatUnithread{sched: s, worker: w, req: req}
	f.onReadyFn = f.onReady
	return f
}

// retireFlat recycles a finished flat context and, if the dispatcher no
// longer holds its request, the request too (same two-owner protocol as
// retire).
func (s *Scheduler) retireFlat(f *flatUnithread) {
	req := f.req
	if req.Buf == nil {
		s.freeRequest(req)
	} else {
		req.retired = true // dispatcher recycles at TX completion
	}
	f.req, f.faultSp = nil, nil
	s.freeFlats = append(s.freeFlats, f)
}

// startFlat spawns a flat unithread for a new request and runs its first
// segment. Mirrors startRequest: the spawn charge is identical and the
// opening Yield of runFlat stands in for the unithread-start event
// env.Go would have pushed.
func (w *Worker) startFlat(req *Request) {
	s := w.sched
	req.Dispatched = w.proc.Now()
	f := s.newFlat(w, req)
	w.charge(s.cfg.Costs.UnithreadSpawn + s.cfg.Costs.UnithreadSwitch)
	w.runFlat(f, false)
}

// runFlat executes one on-core segment of f — from spawn or fault-resume
// up to the next fault park or completion — bracketed by the two Yields
// of the determinism contract, then emits the same run span handoff
// would and retires a finished request.
func (w *Worker) runFlat(f *flatUnithread, resumed bool) {
	start := w.proc.Now()
	w.proc.Yield() // the start/resume event of the goroutine tier
	if resumed {
		w.advanceFlat(f, true)
	} else {
		w.beginFlat(f)
	}
	w.proc.Yield() // the run-gate wake of the goroutine tier
	if s := w.sched; s.Trace != nil {
		s.Trace.RunSpan(w.id, f.req.Pkt.ID, f.req.Pkt.Class, f.req.Faults,
			start, w.proc.Now())
	}
	if f.done {
		w.sched.retireFlat(f)
	}
}

// beginFlat is the request prologue, the analogue of body's entry: start
// timestamps, kernel RX surcharge, scheduling jitter (same RNG draw
// order), then the handler's first step.
func (w *Worker) beginFlat(f *flatUnithread) {
	s := w.sched
	now := w.proc.Now()
	f.req.Started = now
	f.req.QueueWait += now - f.req.Arrive

	c := &s.cfg.Costs
	if c.KernelNetExtra > 0 {
		f.charge(c.KernelNetExtra) // kernel RX path (Hermit)
	}
	if c.JitterProb > 0 && s.env.Rand().Bool(c.JitterProb) {
		w.proc.Sleep(s.env.Rand().Exp(c.JitterMean))
	}
	w.advanceFlat(f, false)
}

// Fault-round outcomes.
const (
	faultParked = iota
	faultAborted
	faultMapped
)

// advanceFlat drives f until it parks on a fetch or finishes. inFault
// resumes an in-progress fault first (the re-queue path).
func (w *Worker) advanceFlat(f *flatUnithread, inFault bool) {
	s := w.sched
	for {
		if inFault {
			switch w.faultRound(f) {
			case faultParked:
				return
			case faultAborted:
				// The demanded page could not be fetched within the retry
				// budget — the simulated SIGBUS the goroutine tier surfaces
				// as a *FetchError panic. Fail the request with the small
				// error response.
				s.FaultAborts.Inc()
				f.req.Failed = true
				f.noPreempt = 0
				w.finishFlat(f, nil, abortRespBytes)
				return
			}
			// faultMapped: the page is resident and MapCost is paid; the
			// re-run's retried access takes the touch-only path.
			f.retry = true
			inFault = false
		}
		resp, respBytes, st := s.stepH.Step(f, &f.frame, f.req.Pkt.Payload)
		if st == workload.StepDone {
			w.finishFlat(f, resp, respBytes)
			return
		}
		// StepFault: TryLoad/TryStore recorded the page; enter the fault.
		w.faultEnter(f)
		inFault = true
	}
}

// faultEnter opens a fault on the page recorded by the failed access —
// WaitPage's entry sequence: fault count, entry cost, marker.
func (w *Worker) faultEnter(f *flatUnithread) {
	s := w.sched
	f.req.Faults++
	f.charge(s.mgr.Config().FaultEntryCost + s.cfg.Costs.KernelFaultExtra)
	f.faultStart = w.proc.Now()
	s.Trace.Instant(trace.KindFetch, w.id, "fault", f.faultStart)
	f.ferr = nil
	f.faultDemand = true
}

// faultRound runs one round of WaitPage's yield-mode wait loop: if the
// page is (or has become) resident the fault closes — RDMA wait and map
// cost accounted exactly as the goroutine epilogue does; if the fetch is
// in flight the continuation parks (charging the unithread switch the
// goroutine tier pays to yield the core).
func (w *Worker) faultRound(f *flatUnithread) int {
	s := w.sched
	for f.ferr == nil && !f.faultSp.Resident(f.faultVpn) {
		if s.mgr.RequestPage(f, f.faultSp, f.faultVpn, f.onReadyFn, f.faultDemand) {
			break
		}
		f.faultDemand = false
		// Park state must be published before the switch charge: the
		// charge's Sleep can run another worker's poll loop, and if the
		// fetch this continuation just joined completes there, markReady
		// fires inside the charge window. Setting flatWaiting afterwards
		// would clobber its flatWaiting→flatReady transition.
		f.state = flatWaiting
		f.charge(s.cfg.Costs.UnithreadSwitch)
		return faultParked
	}
	ferr := f.ferr
	f.ferr = nil
	f.req.RDMAWait += w.proc.Now() - f.faultStart
	if ferr != nil {
		return faultAborted
	}
	f.charge(s.mgr.Config().MapCost)
	return faultMapped
}

// finishFlat is the request epilogue, the analogue of body's tail:
// response, completion accounting, and the done mark runFlat retires on.
func (w *Worker) finishFlat(f *flatUnithread, resp any, respBytes int) {
	s := w.sched
	w.sendResponseFlat(f, resp, respBytes)
	f.req.Finished = w.proc.Now()
	s.Completed.Inc()
	if s.OnComplete != nil {
		s.OnComplete(f.req)
	}
	f.done = true
}

// sendResponseFlat mirrors sendResponse; under SyncTx the worker process
// itself busy-waits on the TX completion (the goroutine tier spins its
// unithread while the worker is parked — one core burning either way,
// and the same single wake event).
func (w *Worker) sendResponseFlat(f *flatUnithread, resp any, respBytes int) {
	s := w.sched
	c := &s.cfg.Costs
	f.charge(c.TxPost)
	if c.KernelNetExtra > 0 {
		f.charge(c.KernelNetExtra) // kernel TX path (Hermit)
	}
	pkt := f.req.Pkt
	pkt.Payload = resp
	pkt.Size = respBytes
	pkt.Ctx = f.req
	w.txq.Send(pkt)

	if s.cfg.Tx == DelegatedTx {
		return // buffer recycled by the dispatcher on completion
	}
	start := w.proc.Now()
	for {
		if w.txCQ.PollInto(w.txBuf[:]) > 0 {
			break
		}
		w.txGate.Wait(w.proc)
	}
	span := w.proc.Now() - start
	f.req.BusyWait += span
	s.busyWaitCycles += int64(span)
	s.Trace.Span(trace.KindBusyWait, w.id, "busy-wait tx", start, w.proc.Now(), nil)
	s.pool.Release(f.req.Buf)
	f.req.Buf = nil
}

// onReady is the fetch-completion callback (pre-bound in onReadyFn):
// record the outcome and queue the continuation on its worker.
func (f *flatUnithread) onReady(err error) {
	f.ferr = err
	f.markReady()
}

// markReady queues the continuation on the worker's ready ring — the
// flat analogue of Unithread.markReady, one slice append either way.
func (f *flatUnithread) markReady() {
	if simcheck.On() && f.state != flatWaiting {
		simcheck.Fail(simcheck.New("sched/flat-state",
			"flat unithread woken while not parked on a fetch").
			With("state", f.state).With("worker", f.worker.id))
	}
	f.state = flatReady
	w := f.worker
	w.ready.PushBack(readyItem{flat: f})
	if w.idle {
		w.idleGate.Wake()
	}
}

// resumeFlat is the worker-loop entry for a ready continuation (the
// caller has already charged the unithread switch, as for handoff).
func (w *Worker) resumeFlat(f *flatUnithread) {
	if simcheck.On() && f.state != flatReady {
		simcheck.Fail(simcheck.New("sched/flat-state",
			"flat unithread resumed while not on the ready ring").
			With("state", f.state).With("worker", w.id))
	}
	f.state = flatRunning
	w.runFlat(f, true)
}

// ---- StepCtx and paging.Thread for the flat tier ----

// Proc implements paging.Thread: the flat tier blocks on the worker's
// own process (frame-allocation waits, QP slot waits).
func (f *flatUnithread) Proc() *sim.Proc { return f.worker.proc }

// QP implements paging.Thread.
func (f *flatUnithread) QP(node int) *rdma.QP { return f.worker.qps[node] }

// WaitPage implements paging.Thread. The flat tier never routes paged
// accesses through Space.ensure, so nothing should ever call this.
func (f *flatUnithread) WaitPage(sp *paging.Space, vpn int64) {
	panic("sched: WaitPage on a flat unithread (use TryLoad/TryStore)")
}

// Rand implements workload.StepCtx.
func (f *flatUnithread) Rand() *sim.RNG { return f.sched.env.Rand() }

// Compute implements workload.StepCtx. The flat tier only runs under
// non-preemptive configurations, so this is the goroutine tier's
// non-IPI branch: one plain charge.
func (f *flatUnithread) Compute(d sim.Time) { f.charge(d) }

// Probe implements workload.StepCtx: free on a non-preemptive scheduler,
// exactly as for the goroutine tier.
func (f *flatUnithread) Probe() {}

// CriticalEnter implements workload.StepCtx.
func (f *flatUnithread) CriticalEnter() { f.noPreempt++ }

// CriticalExit implements workload.StepCtx.
func (f *flatUnithread) CriticalExit() {
	if f.noPreempt <= 0 {
		panic("sched: CriticalExit without CriticalEnter")
	}
	f.noPreempt--
}

// charge consumes application CPU on the carrying core (identical to
// Unithread.charge).
func (f *flatUnithread) charge(d sim.Time) {
	if d <= 0 {
		return
	}
	w := f.worker
	w.proc.Sleep(d)
	f.req.CPU += d
	w.busyCycles += int64(d)
	f.sched.cpuCycles += int64(d)
}

// tryPage probes one page for an n-byte access at off, recording the
// fault target on a miss. Flat-tier accesses must not span pages (the
// resumable-step contract retries a single access).
func (f *flatUnithread) tryPage(sp *paging.Space, off, n int64) ([]byte, bool) {
	if off&(paging.PageSize-1) > paging.PageSize-n {
		panic("sched: flat-tier paged access spans pages")
	}
	vpn := off >> paging.PageShift
	retry := f.retry && f.faultSp == sp && f.faultVpn == vpn
	f.retry = false
	page, ok := sp.TryPage(vpn, retry)
	if ok {
		return page, true
	}
	f.faultSp, f.faultVpn = sp, vpn
	return nil, false
}

// TryLoadU64 implements workload.StepCtx.
func (f *flatUnithread) TryLoadU64(sp *paging.Space, off int64) (uint64, bool) {
	page, ok := f.tryPage(sp, off, 8)
	if !ok {
		return 0, false
	}
	po := off & (paging.PageSize - 1)
	return binary.LittleEndian.Uint64(page[po : po+8]), true
}

// TryStoreU64 implements workload.StepCtx.
func (f *flatUnithread) TryStoreU64(sp *paging.Space, off int64, v uint64) bool {
	if _, ok := f.tryPage(sp, off, 8); !ok {
		return false
	}
	// Write through DirtyPage's view: it materializes a zero-copy alias,
	// and the store must land in the frame's private copy.
	page := sp.DirtyPage(off >> paging.PageShift)
	po := off & (paging.PageSize - 1)
	binary.LittleEndian.PutUint64(page[po:po+8], v)
	return true
}
