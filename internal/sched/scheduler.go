package sched

import (
	"fmt"

	"repro/internal/ethernet"
	"repro/internal/paging"
	"repro/internal/rdma"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/trace"
	"repro/internal/unithread"
	"repro/internal/workload"
)

// Scheduler is the MD scheduler: Config.Dispatchers dispatcher cores
// plus Config.Workers worker cores, wired to the client network, the
// RDMA fabric, and the paging manager. It is policy-parameterized so
// Adios, DiLOS, DiLOS-P, and Hermit are configurations of the same
// machinery.
type Scheduler struct {
	env     *sim.Env
	cfg     Config
	net     *ethernet.Net
	fab     rdma.Fabric
	mgr     *paging.Manager
	pool    *unithread.Pool
	handler workload.Handler

	central     *sim.Queue[workItem]
	dispatchers []*dispatcher
	workers     []*Worker

	// stepH and flat select the flat unithread tier: set via
	// SetStepHandler when the app can express its handler as resumable
	// steps AND the configuration qualifies (yield wait, no preemption —
	// the no-switch hot path the tier exists to flatten). Busy-wait and
	// preemptive configurations keep the goroutine tier, whose blocking
	// and quantum semantics genuinely need a stackful context.
	stepH workload.StepHandler
	flat  bool

	// Completed counts finished requests; OnComplete (if set) receives
	// each finished request record for measurement.
	Completed  stats.Counter
	OnComplete func(*Request)

	// FaultAborts counts requests failed because a demand fetch was
	// abandoned after bounded retries (Request.Failed is set on each).
	FaultAborts stats.Counter

	// Admit, if set, filters arriving packets before admission (e.g. the
	// transport layer's duplicate suppression). Rejected packets are
	// dropped silently and without consuming a unithread buffer.
	Admit func(*ethernet.Packet) bool

	// Trace, if set, records per-core execution spans (on-core stints,
	// busy-wait intervals, fault markers, dispatcher activity) for
	// chrome://tracing / Perfetto. Nil disables tracing at zero cost.
	Trace *trace.Recorder

	// DropsQueue counts requests shed at the full central queue;
	// DropsPool those shed because the unithread pool was exhausted.
	DropsQueue stats.Counter
	DropsPool  stats.Counter

	// Steals counts successful work-stealing transfers.
	Steals stats.Counter

	// cpuCycles aggregates all worker/unithread CPU; busyWaitCycles the
	// subset spent busy-waiting. Their ratio drives the "slashed"
	// queueing attribution of Figure 2(c).
	cpuCycles      int64
	busyWaitCycles int64
	dispCycles     int64

	// freeReqs and freeUts recycle the per-request Request records and
	// unithread contexts (each with its gate and body closure), so the
	// admission path is allocation-free in steady state. Requests follow
	// a two-owner protocol: the worker retires one when its unithread
	// finishes, but under delegated TX the dispatcher still holds it
	// until the TX completion releases the buffer — whichever party acts
	// last recycles (Request.retired marks the first half done).
	freeReqs  []*Request
	freeUts   []*Unithread
	freeFlats []*flatUnithread
}

// SetStepHandler offers the scheduler a resumable-step form of the
// handler. When the configuration qualifies (yield wait, no preemption),
// requests run on the flat unithread tier: inline on the worker's own
// process with no per-request coroutine — the same simulated schedule,
// bit for bit, at a fraction of the wall-clock cost. Call before Start.
func (s *Scheduler) SetStepHandler(h workload.StepHandler) {
	s.stepH = h
	s.flat = h != nil && s.cfg.Wait == Yield && !s.cfg.Preempt
}

// FlatTier reports whether requests execute on the flat unithread tier.
func (s *Scheduler) FlatTier() bool { return s.flat }

// newRequest takes a Request from the free list (or allocates one) and
// initializes it for an arriving packet.
func (s *Scheduler) newRequest(pkt *ethernet.Packet, buf *unithread.Buffer) *Request {
	if n := len(s.freeReqs); n > 0 {
		r := s.freeReqs[n-1]
		s.freeReqs[n-1] = nil
		s.freeReqs = s.freeReqs[:n-1]
		*r = Request{Pkt: pkt, Buf: buf, Arrive: pkt.ArriveNode}
		return r
	}
	return &Request{Pkt: pkt, Buf: buf, Arrive: pkt.ArriveNode}
}

// freeRequest returns a fully-released Request (buffer recycled,
// completion hooks done) to the free list.
func (s *Scheduler) freeRequest(r *Request) {
	r.Pkt = nil // drop the packet reference; the rest is reset on reuse
	s.freeReqs = append(s.freeReqs, r)
}

// newUnithread takes a recycled unithread context (or builds one) for a
// dispatched request. Recycled contexts keep their gate and body closure,
// so steady-state request admission allocates nothing here.
func (s *Scheduler) newUnithread(w *Worker, req *Request) *Unithread {
	if n := len(s.freeUts); n > 0 {
		u := s.freeUts[n-1]
		s.freeUts[n-1] = nil
		s.freeUts = s.freeUts[:n-1]
		g, bf, orf := u.gate, u.bodyFn, u.onReadyFn
		g.Reset()
		*u = Unithread{sched: s, worker: w, gate: g, bodyFn: bf, onReadyFn: orf, req: req}
		return u
	}
	u := &Unithread{sched: s, worker: w, gate: sim.NewGate(s.env), req: req}
	u.bodyFn = u.body
	u.onReadyFn = u.onReady
	return u
}

// retire recycles a finished unithread and, if the dispatcher no longer
// holds its request (buffer already released), the request too.
func (s *Scheduler) retire(u *Unithread) {
	req := u.req
	if req.Buf == nil {
		s.freeRequest(req)
	} else {
		req.retired = true // dispatcher recycles at TX completion
	}
	u.req, u.proc = nil, nil
	s.freeUts = append(s.freeUts, u)
}

// dispatcher is one front-end core: it drains the RX ring into the
// central queue, recycles delegated TX completions, and assigns work to
// its partition of the workers.
type dispatcher struct {
	id      int
	sched   *Scheduler
	gate    *sim.Gate
	txCQ    *rdma.CQ
	workers []*Worker
	rr      int

	txBuf [64]rdma.Completion  // TX completion-poll scratch (allocation-free)
	rxBuf [64]*ethernet.Packet // RX poll scratch (allocation-free)
}

// New wires a scheduler. fab carries one NIC per memory node; each
// worker gets one fetch QP per node, all completing on the worker's
// single fetch CQ, so the polling paths are node-count agnostic. The
// caller starts the scheduler with Start after attaching OnComplete
// hooks.
func New(env *sim.Env, cfg Config, net *ethernet.Net, fab rdma.Fabric,
	mgr *paging.Manager, pool *unithread.Pool, handler workload.Handler) *Scheduler {
	if cfg.Workers <= 0 {
		panic(fmt.Sprintf("sched: bad worker count %d", cfg.Workers))
	}
	if cfg.Dispatchers <= 0 {
		cfg.Dispatchers = 1
	}
	if cfg.Dispatchers > cfg.Workers {
		cfg.Dispatchers = cfg.Workers
	}
	s := &Scheduler{
		env: env, cfg: cfg, net: net, fab: fab, mgr: mgr, pool: pool,
		handler: handler,
		central: sim.NewQueue[workItem](env),
	}
	for d := 0; d < cfg.Dispatchers; d++ {
		s.dispatchers = append(s.dispatchers, &dispatcher{
			id:    d,
			sched: s,
			gate:  sim.NewGate(env),
			txCQ:  rdma.NewCQ(fmt.Sprintf("d%d-tx", d)),
		})
	}
	for i := 0; i < cfg.Workers; i++ {
		disp := s.dispatchers[i%cfg.Dispatchers]
		w := &Worker{
			id:       i,
			sched:    s,
			disp:     disp,
			runGate:  sim.NewGate(env),
			idleGate: sim.NewGate(env),
			cqGate:   sim.NewGate(env),
			txGate:   sim.NewGate(env),
		}
		w.cq = rdma.NewCQ(fmt.Sprintf("w%d-fetch", i))
		w.qps = fab.CreateQPs(fmt.Sprintf("w%d", i), w.cq)
		w.txCQ = rdma.NewCQ(fmt.Sprintf("w%d-tx", i))
		if cfg.Tx == DelegatedTx {
			w.txq = net.CreateTxQueue(fmt.Sprintf("w%d", i), disp.txCQ)
		} else {
			w.txq = net.CreateTxQueue(fmt.Sprintf("w%d", i), w.txCQ)
		}
		// Completion arrivals wake the relevant parked party: an idle
		// worker (yield mode) or a busy-waiting unithread.
		cq, tw := w.cq, w
		cq.Notify = func() {
			if tw.idle {
				tw.idleGate.Wake()
			}
			tw.cqGate.Wake()
		}
		w.txCQ.Notify = w.txGate.Wake
		disp.workers = append(disp.workers, w)
		s.workers = append(s.workers, w)
	}
	net.RxNotify = s.wakeDispatchers
	for _, d := range s.dispatchers {
		d.txCQ.Notify = d.gate.Wake
	}
	return s
}

// wakeDispatchers wakes every dispatcher core.
func (s *Scheduler) wakeDispatchers() {
	for _, d := range s.dispatchers {
		d.gate.Wake()
	}
}

// Workers exposes the worker set (instrumentation, tests).
func (s *Scheduler) Workers() []*Worker { return s.workers }

// CPUCycles returns total worker-side CPU consumed so far.
func (s *Scheduler) CPUCycles() int64 { return s.cpuCycles }

// BusyWaitCycles returns worker-side cycles spent busy-waiting.
func (s *Scheduler) BusyWaitCycles() int64 { return s.busyWaitCycles }

// DispatcherCycles returns CPU consumed across dispatcher cores.
func (s *Scheduler) DispatcherCycles() int64 { return s.dispCycles }

// QueueLen reports the central queue occupancy.
func (s *Scheduler) QueueLen() int { return s.central.Len() }

// Start launches the dispatcher and worker processes.
func (s *Scheduler) Start() {
	for _, w := range s.workers {
		w := w
		s.env.Go(fmt.Sprintf("worker%d", w.id), w.loop)
	}
	for _, d := range s.dispatchers {
		d := d
		s.env.Go(fmt.Sprintf("dispatcher%d", d.id), d.loop)
	}
}

// charge consumes dispatcher-core CPU.
func (d *dispatcher) charge(p *sim.Proc, dt sim.Time) {
	if dt <= 0 {
		return
	}
	p.Sleep(dt)
	d.sched.dispCycles += int64(dt)
}

// loop is the single-queue dispatcher (§3.4): drain the RX ring into the
// central queue, recycle delegated TX completions, and hand requests to
// workers in policy order.
func (d *dispatcher) loop(p *sim.Proc) {
	s := d.sched
	c := &s.cfg.Costs
	for {
		progress := false

		if np := s.net.PollRxInto(d.rxBuf[:]); np > 0 {
			progress = true
			t0 := p.Now()
			d.charge(p, c.RxPollBatch+c.RxPerPacket*sim.Time(np))
			s.Trace.PollSpan(1000+d.id, np, t0, p.Now())
			for _, pkt := range d.rxBuf[:np] {
				if s.Admit != nil && !s.Admit(pkt) {
					continue
				}
				if s.central.Len() >= s.cfg.CentralQueueCap {
					s.DropsQueue.Inc()
					continue
				}
				buf, ok := s.pool.Acquire()
				if !ok {
					s.DropsPool.Inc()
					continue
				}
				s.central.Push(workItem{req: s.newRequest(pkt, buf)})
			}
		}

		if n := d.txCQ.PollInto(d.txBuf[:]); n > 0 {
			progress = true
			d.charge(p, c.TxCompletion*sim.Time(n))
			for _, comp := range d.txBuf[:n] {
				pkt := comp.Cookie.(*ethernet.Packet)
				req := pkt.Ctx.(*Request)
				pkt.Ctx = nil
				if req.Buf != nil {
					s.pool.Release(req.Buf)
					req.Buf = nil
				}
				if req.retired {
					s.freeRequest(req)
				}
			}
		}

		for s.central.Len() > 0 {
			w := d.pickWorker()
			if w == nil {
				break
			}
			progress = true
			item, _ := s.central.TryPop()
			d.charge(p, c.Dispatch)
			w.inbox.PushBack(item)
			w.idle = false
			w.idleGate.Wake()
		}

		if !progress {
			d.gate.Wait(p)
		}
	}
}

// pickWorker selects a worker from this dispatcher's partition per the
// dispatch policy, or nil if none can accept work right now.
// PF-aware dispatching (Algorithm 1) prefers the idle worker with the
// fewest outstanding page fetches; round-robin cycles through idle
// workers; work-stealing assigns round-robin unconditionally (per-worker
// queues, ZygOS-style).
func (d *dispatcher) pickWorker() *Worker {
	switch d.sched.cfg.Dispatch {
	case PFAware:
		var best *Worker
		for _, w := range d.workers {
			if !w.idle {
				continue
			}
			if best == nil || w.Outstanding() < best.Outstanding() {
				best = w
			}
		}
		return best
	case WorkStealing:
		w := d.workers[d.rr%len(d.workers)]
		d.rr++
		return w
	default: // RoundRobin
		n := len(d.workers)
		for i := 0; i < n; i++ {
			w := d.workers[(d.rr+i)%n]
			if w.idle {
				d.rr = (d.rr + i + 1) % n
				return w
			}
		}
		return nil
	}
}
