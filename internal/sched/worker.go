package sched

import (
	"repro/internal/ethernet"
	"repro/internal/paging"
	"repro/internal/rdma"
	"repro/internal/sim"
)

// readyItem is one entry on a worker's ready ring: a fetch-completed
// unithread awaiting its core, from whichever tier. A configuration runs
// all requests on one tier, so the two pointers never mix within a run;
// FIFO order across the ring is the resume order either way.
type readyItem struct {
	u    *Unithread
	flat *flatUnithread
}

// Worker is one request-processing core. It owns a page-fetch QP (whose
// depth the PF-aware dispatcher inspects), a fetch CQ, and a TX queue.
// Under the yield policy a worker multiplexes many blocked unithreads;
// under busy-wait it runs exactly one request at a time.
type Worker struct {
	id    int
	sched *Scheduler
	disp  *dispatcher
	proc  *sim.Proc

	qps []*rdma.QP // page-fetch queue pairs, one per memory node
	cq  *rdma.CQ   // page-fetch completions (all nodes), polled by this worker

	txq    *ethernet.TxQueue
	txCQ   *rdma.CQ // own TX completions (SyncTx mode only)
	txGate *sim.Gate

	runGate  *sim.Gate // worker parks here while a unithread runs
	idleGate *sim.Gate // worker parks here when it has no runnable work
	cqGate   *sim.Gate // busy-waiting unithreads park here for CQ arrivals

	inbox   ring[workItem]  // assigned by the dispatcher (at most one pending)
	ready   ring[readyItem] // fetch-completed unithreads awaiting resume
	current *Unithread
	idle    bool

	cqBuf [32]rdma.Completion // fetch-CQ poll scratch (steady state is allocation-free)
	txBuf [4]rdma.Completion  // SyncTx completion-poll scratch

	busyCycles int64 // CPU consumed on this core (loop + unithreads)
}

// ID returns the worker's index.
func (w *Worker) ID() int { return w.id }

// BusyCycles returns the CPU cycles consumed on this worker core,
// including the unithreads it hosted. Busy-wait spans are not included
// (they are tracked separately as BusyWaitCycles).
func (w *Worker) BusyCycles() int64 { return w.busyCycles }

// Outstanding reports the worker's in-flight page fetches summed over
// its per-node QPs — the congestion signal of Algorithm 1.
func (w *Worker) Outstanding() int {
	n := 0
	for _, qp := range w.qps {
		n += qp.Outstanding()
	}
	return n
}

// charge consumes worker-loop CPU (polling, switching) on this core.
func (w *Worker) charge(d sim.Time) {
	if d <= 0 {
		return
	}
	w.proc.Sleep(d)
	w.busyCycles += int64(d)
	w.sched.cpuCycles += int64(d)
}

// loop is the worker's scheduling loop. Order follows §3.3: poll the
// fetch CQ once, resume ready unithreads before starting new requests,
// otherwise report idle and wait.
func (w *Worker) loop(p *sim.Proc) {
	w.proc = p
	s := w.sched
	for {
		if s.cfg.Wait == Yield {
			if n := w.cq.PollInto(w.cqBuf[:]); n > 0 {
				w.charge(s.cfg.Costs.CQPoll)
				for _, c := range w.cqBuf[:n] {
					s.mgr.CompleteOn(c.Cookie.(*paging.Fetch), c.Err, c.QP)
				}
			}
		}
		if w.ready.Len() > 0 {
			item := w.ready.PopFront()
			w.charge(s.cfg.Costs.UnithreadSwitch)
			if item.flat != nil {
				w.resumeFlat(item.flat)
			} else {
				w.handoff(item.u)
			}
			continue
		}
		if w.inbox.Len() > 0 {
			w.run(w.inbox.PopFront())
			continue
		}
		if s.cfg.Dispatch == WorkStealing {
			if item, ok := w.steal(); ok {
				w.run(item)
				continue
			}
		}
		w.idle = true
		w.disp.gate.Wake() // tell the dispatcher a core freed up
		w.idleGate.Wait(p)
		w.idle = false
	}
}

// run executes one work item: a fresh request or a migrated preempted
// unithread.
func (w *Worker) run(item workItem) {
	if item.resumed != nil {
		u := item.resumed
		u.worker = w
		w.charge(w.sched.cfg.Costs.PreemptSwitch)
		w.handoff(u)
		return
	}
	w.startRequest(item.req)
}

// steal scans peer workers' queues (oldest first from the victim's
// tail) and takes one item — the ZygOS-style approximation of a central
// queue. Each probed victim costs StealProbe; a hit costs StealTransfer.
func (w *Worker) steal() (workItem, bool) {
	s := w.sched
	n := len(s.workers)
	for j := 1; j < n; j++ {
		v := s.workers[(w.id+j)%n]
		w.charge(s.cfg.Costs.StealProbe)
		if v.inbox.Len() == 0 {
			continue
		}
		item := v.inbox.PopBack()
		w.charge(s.cfg.Costs.StealTransfer)
		s.Steals.Inc()
		return item, true
	}
	return workItem{}, false
}

// startRequest spawns a unithread for a new request and runs it — on
// the flat tier when the app's step handler qualifies, else on a
// coroutine-backed Unithread.
func (w *Worker) startRequest(req *Request) {
	s := w.sched
	if s.flat {
		w.startFlat(req)
		return
	}
	now := w.proc.Now()
	req.Dispatched = now
	u := s.newUnithread(w, req)
	w.charge(s.cfg.Costs.UnithreadSpawn + s.cfg.Costs.UnithreadSwitch)
	s.env.Go("unithread", u.bodyFn)
	w.handoff(u)
}

// handoff transfers the core to the unithread until it yields, is
// preempted, or retires.
func (w *Worker) handoff(u *Unithread) {
	w.current = u
	start := w.proc.Now()
	u.gate.Wake()
	w.runGate.Wait(w.proc)
	w.current = nil
	if w.sched.Trace != nil {
		w.sched.Trace.RunSpan(w.id, u.req.Pkt.ID, u.req.Pkt.Class, u.req.Faults,
			start, w.proc.Now())
	}
	if u.finished {
		w.sched.retire(u)
	}
}
