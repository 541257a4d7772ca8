package sched

import (
	"testing"

	"repro/internal/ethernet"
	"repro/internal/memnode"
	"repro/internal/paging"
	"repro/internal/rdma"
	"repro/internal/sim"
	"repro/internal/unithread"
	"repro/internal/workload"
)

// The round-trip benchmark drives requests through the full path —
// arrival, dispatch, spawn, one guaranteed demand fault, resume, reply,
// retire — on each execution tier, keeping rtInflight requests in
// flight so the worker runs segments back to back as it does under
// load. The working set cycles over many more pages than the frame
// pool, so every access faults. Payloads, responses, and packets are
// preallocated and rotated: the measured loop exercises only the
// scheduler's own steady-state machinery, and the flat tier must run it
// without allocating at all (the guard below).

// rtPayload is the benchmark request: one paged offset, mutated in
// place between round trips (the boxes are allocated once).
type rtPayload struct{ off int64 }

const (
	rtLocalPages = 256
	rtSpanPages  = 4096
	rtWarmOps    = 2048
	rtInflight   = 16 // concurrently outstanding requests (closed loop)
	rtRefill     = 8  // completions per batched refill (amortizes RX wakes)
	rtFaults     = 8  // paged accesses per request, each a guaranteed miss
	rtStride     = 797 * paging.PageSize
	rtSpanBytes  = rtSpanPages * paging.PageSize
)

// rtStepApp is a minimal two-tier app: parse, one paged load, reply.
// The response is a preallocated boxed value shared across requests.
type rtStepApp struct {
	space *paging.Space
	resp  any
}

func (a *rtStepApp) handler() workload.Handler {
	return func(ctx workload.Ctx, payload any) (any, int) {
		ctx.Compute(250)
		ctx.Probe()
		base := payload.(*rtPayload).off
		for j := int64(0); j < rtFaults; j++ {
			_ = a.space.LoadU64(ctx, (base+j*rtStride)%rtSpanBytes)
		}
		ctx.Compute(450)
		return a.resp, 64
	}
}

type rtStep struct{ a *rtStepApp }

func (rtStep) Begin(f *workload.StepFrame, payload any) { f.PC = 0 }

func (s rtStep) Step(ctx workload.StepCtx, f *workload.StepFrame, payload any) (any, int, workload.StepStatus) {
	switch f.PC {
	case 0:
		ctx.Compute(250)
		ctx.Probe()
		f.PC, f.W[0] = 1, 0
		fallthrough
	default:
		base := payload.(*rtPayload).off
		for j := int64(f.W[0]); j < rtFaults; j++ {
			f.W[0] = uint64(j)
			if _, ok := ctx.TryLoadU64(s.a.space, (base+j*rtStride)%rtSpanBytes); !ok {
				return nil, 0, workload.StepFault
			}
		}
		ctx.Compute(450)
		return s.a.resp, 64, workload.StepDone
	}
}

// rtRig is the benchmark harness: a one-worker scheduler fed by a
// self-clocked closed loop — each completion injects the next request
// from inside the completion hook, so no driver process sits in the
// measured path.
type rtRig struct {
	env      *sim.Env
	net      *ethernet.Net
	sched    *Scheduler
	payloads [rtInflight]*rtPayload
	boxed    [rtInflight]any
	pkts     [4 * rtInflight]*ethernet.Packet
	sent     int
}

func newRTRig(flatTier bool, wait WaitPolicy) *rtRig {
	env := sim.NewEnv(5)
	// Fast fabric: with wire serialization and flight shrunk, fetch
	// completions and arrivals cluster at the same instants, so each
	// worker/dispatcher wake drains a batch — the sustained-load shape
	// where execution-tier cost, not the network, is what differs.
	ncfg := ethernet.DefaultConfig()
	ncfg.CyclesPerByte = 0.01
	ncfg.Flight = sim.Micros(0.1)
	ncfg.TxCompletionLatency = sim.Micros(0.3)
	rcfg := rdma.DefaultConfig()
	rcfg.CyclesPerByte = 0.01
	rcfg.ReqFlight = sim.Micros(0.1)
	rcfg.RespFlight = sim.Micros(0.1)
	r := &rtRig{
		env: env,
		net: ethernet.New(env, ncfg),
	}
	for i := range r.payloads {
		r.payloads[i] = &rtPayload{}
		r.boxed[i] = r.payloads[i]
	}
	nic := rdma.NewNIC(env, rcfg)
	mgr := paging.NewManager(env, paging.DefaultConfig(rtLocalPages*paging.PageSize))
	node := memnode.New(1 << 30)
	app := &rtStepApp{
		space: mgr.NewSpace("rt", node.MustAlloc("rt", rtSpanPages*paging.PageSize)),
		resp:  any(uint64(1)),
	}
	cfg := DefaultConfig()
	cfg.Workers, cfg.Dispatchers = 1, 1
	cfg.Wait = wait
	r.sched = New(env, cfg, r.net, rdma.Fabric{nic}, mgr, unithread.NewPool(64, 4096), app.handler())
	if flatTier {
		r.sched.SetStepHandler(rtStep{app})
	}
	r.sched.Start()
	rcq := rdma.NewCQ("reclaim")
	mgr.StartReclaimer(nic.CreateQP("reclaim", rcq), rcq)
	for i := range r.pkts {
		r.pkts[i] = &ethernet.Packet{}
	}
	return r
}

// inject sends the next request, rotating the packet pool and mutating
// a payload box in place. Callable from any event context (including
// the completion hook), so the closed loop never crosses a process
// boundary to refill itself.
func (r *rtRig) inject() {
	pkt := r.pkts[r.sent%len(r.pkts)]
	pl := r.payloads[r.sent%len(r.payloads)]
	pl.off = int64(r.sent%rtSpanPages) * paging.PageSize
	pkt.ID = uint64(r.sent)
	pkt.Payload = pl
	pkt.Size = 64
	pkt.TxTime = r.env.Now()
	r.sent++
	r.net.SendToNode(pkt)
}

func benchRoundTrip(b *testing.B, flatTier bool) {
	r := newRTRig(flatTier, Yield)
	total := rtWarmOps + b.N
	completed := 0
	r.sched.OnComplete = func(*Request) {
		completed++
		if completed == rtWarmOps {
			b.ResetTimer()
		}
		if completed%rtRefill == 0 {
			for i := 0; i < rtRefill && r.sent < total; i++ {
				r.inject()
			}
		}
		if completed == total {
			r.env.Stop()
		}
	}
	r.env.At(1, func() {
		for i := 0; i < rtInflight; i++ {
			r.inject()
		}
	})
	r.env.RunAll()
	b.StopTimer()
	if got := r.sched.Completed.Value(); got != int64(total) {
		b.Fatalf("completed %d of %d round trips", got, total)
	}
}

func BenchmarkSchedRequestRoundTrip(b *testing.B) {
	b.Run("goroutine", func(b *testing.B) { benchRoundTrip(b, false) })
	b.Run("flat", func(b *testing.B) { benchRoundTrip(b, true) })
}

// roundTripAllocs measures the allocations of one request round trip —
// admission, spawn, fault, park, resume, reply, retire — once pools are
// warm.
func roundTripAllocs(r *rtRig) float64 {
	done := sim.NewGate(r.env)
	r.sched.OnComplete = func(*Request) { done.Wake() }
	var got float64
	r.env.Go("driver", func(p *sim.Proc) {
		op := func() {
			r.inject()
			done.Wait(p)
		}
		for i := 0; i < rtWarmOps; i++ {
			op()
		}
		got = testing.AllocsPerRun(200, op)
		r.env.Stop()
	})
	r.env.RunAll()
	return got
}

// The flat tier's zero-allocation contract: a full request round trip
// allocates nothing once pools are warm.
func TestFlatRoundTripZeroAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("alloc accounting is not meaningful under -race")
	}
	if got := roundTripAllocs(newRTRig(true, Yield)); got != 0 {
		t.Fatalf("flat round trip allocates %v per op, want 0", got)
	}
}

// The goroutine tier keeps the same contract under both wait policies:
// each fault registers a pre-bound completion callback, so neither the
// yield nor the busy-wait path allocates per fault.
func TestGoroutineRoundTripZeroAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("alloc accounting is not meaningful under -race")
	}
	for _, wait := range []WaitPolicy{Yield, BusyWait} {
		if got := roundTripAllocs(newRTRig(false, wait)); got != 0 {
			t.Errorf("goroutine round trip (wait policy %d) allocates %v per op, want 0", wait, got)
		}
	}
}
