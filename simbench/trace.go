package main

import (
	"bufio"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"repro/internal/paging"
	"repro/internal/sim"
	"repro/internal/workload"
)

// spanKind names a layer boundary the tracer records.
type spanKind uint8

const (
	spSetupSystem spanKind = iota // phaseSystem..phaseStart map onto the first four kinds
	spSetupApp
	spSetupWarm
	spSetupStart
	spNext     // App.NextRequest
	spHandler  // the app's Handler, goroutine tier
	spStep     // the app's StepHandler.Step, flat tier
	spCompute  // Ctx.Compute / StepCtx.Compute
	spProbe    // Ctx.Probe / StepCtx.Probe
	spWaitPage // Ctx.WaitPage
	spBlock    // Ctx.Block
	spTryLoad  // StepCtx.TryLoadU64
	spTryStore // StepCtx.TryStoreU64
	nSpanKinds
)

var spanNames = [nSpanKinds]string{
	"setup.system", "setup.app", "setup.warm", "setup.start",
	"loadgen.next", "app.handler", "app.step",
	"sched.compute", "sched.probe", "paging.wait_page", "sched.block",
	"paging.try_load", "paging.try_store",
}

// maxSpans bounds the spans kept for the span file; spans past it still
// count in the per-kind totals.
const maxSpans = 1 << 18

// span is one recorded interval, in nanoseconds since the tracer started.
type span struct {
	start, end int64
	req        uint64 // request id; 0 for set-up spans
	parent     int32  // index of the enclosing span, -1 for a root
	kind       spanKind
}

// spanTotals accumulates one kind over every span recorded, kept or not.
type spanTotals struct {
	n     int64
	total int64 // ns
	self  int64 // ns not covered by child spans
}

// tracer records spans from the benchmark's own wrappers around the calls
// into each layer. It is used by one simulation at a time, and a
// simulation runs one proc at a time, so it needs no locking.
type tracer struct {
	origin  time.Time
	spans   []span
	dropped int64
	totals  [nSpanKinds]spanTotals
	lastReq uint64
}

func newTracer() *tracer {
	return &tracer{origin: time.Now(), spans: make([]span, 0, maxSpans)}
}

func (t *tracer) now() int64 { return int64(time.Since(t.origin)) }

// open starts a root span and returns its index, or -1 once the span
// buffer is full.
func (t *tracer) open(k spanKind, start int64, req uint64) int32 {
	if len(t.spans) == maxSpans {
		t.dropped++
		return -1
	}
	t.spans = append(t.spans, span{start: start, req: req, parent: -1, kind: k})
	return int32(len(t.spans) - 1)
}

// close ends root span i, of which child ns were covered by children.
func (t *tracer) close(i int32, k spanKind, start, end, child int64) {
	if i >= 0 {
		t.spans[i].end = end
	}
	s := &t.totals[k]
	s.n++
	s.total += end - start
	s.self += end - start - child
}

// leaf records a span with no children.
func (t *tracer) leaf(k spanKind, start, end int64, parent int32, req uint64) {
	if len(t.spans) < maxSpans {
		t.spans = append(t.spans, span{start: start, end: end, req: req, parent: parent, kind: k})
	} else {
		t.dropped++
	}
	s := &t.totals[k]
	s.n++
	s.total += end - start
	s.self += end - start
}

func (t *tracer) setupSpan(k phase, t0, t1 time.Time) {
	t.leaf(spanKind(k), int64(t0.Sub(t.origin)), int64(t1.Sub(t.origin)), -1, 0)
}

// mean is the mean duration of kind k in ns (self time if self), or 0
// when no such span was recorded.
func (t *tracer) mean(k spanKind, self bool) float64 {
	s := t.totals[k]
	if s.n == 0 {
		return 0
	}
	if self {
		return float64(s.self) / float64(s.n)
	}
	return float64(s.total) / float64(s.n)
}

// write stores the kept spans as CSV: one row per span, parent being the
// row index (from 0) of the enclosing span or -1.
func (t *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	fmt.Fprintln(w, "name,start_ns,end_ns,parent,req")
	for _, s := range t.spans {
		fmt.Fprintf(w, "%s,%d,%d,%d,%d\n", spanNames[s.kind], s.start, s.end, s.parent, s.req)
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// tagged is a request payload with the id the tracer gave it, so every
// span of one request carries the same id.
type tagged struct {
	id uint64
	p  any
}

// wrap returns app with a span around each call into it. The wrapper
// forwards the optional interfaces core uses (StepApp, Classify), so the
// traced simulation takes the same tier and path as an untraced one.
func (t *tracer) wrap(app workload.App) workload.App {
	base := &tracedApp{inner: app, tr: t}
	if sa, ok := app.(workload.StepApp); ok {
		return &tracedStepApp{tracedApp: base, step: sa.StepHandler()}
	}
	if c, ok := app.(interface{ Classify(any) string }); ok {
		return &tracedClassApp{tracedApp: base, classify: c.Classify}
	}
	return base
}

type tracedApp struct {
	inner workload.App
	tr    *tracer
}

func (a *tracedApp) Name() string { return a.inner.Name() }

func (a *tracedApp) NextRequest(rng *sim.RNG) (any, int) {
	t := a.tr
	t0 := t.now()
	p, n := a.inner.NextRequest(rng)
	t.lastReq++
	t.leaf(spNext, t0, t.now(), -1, t.lastReq)
	return tagged{id: t.lastReq, p: p}, n
}

func (a *tracedApp) Handler() workload.Handler {
	h := a.inner.Handler()
	t := a.tr
	return func(ctx workload.Ctx, payload any) (any, int) {
		tg := payload.(tagged)
		c := &tracedCtx{Ctx: ctx, reqScope: reqScope{tr: t, req: tg.id}}
		t0 := t.now()
		c.parent = t.open(spHandler, t0, tg.id)
		resp, n := h(c, tg.p)
		t.close(c.parent, spHandler, t0, t.now(), c.child)
		return resp, n
	}
}

type tracedClassApp struct {
	*tracedApp
	classify func(any) string
}

func (a *tracedClassApp) Classify(p any) string { return a.classify(p.(tagged).p) }

type tracedStepApp struct {
	*tracedApp
	step workload.StepHandler
}

func (a *tracedStepApp) StepHandler() workload.StepHandler {
	return tracedStepper{inner: a.step, tr: a.tr}
}

// reqScope is the span state of one call into the app: the request it
// serves, its root span and how much of the root its children covered.
type reqScope struct {
	tr     *tracer
	req    uint64
	parent int32
	child  int64
}

// end records a child span of kind k that started at t0.
func (c *reqScope) end(k spanKind, t0 int64) {
	t1 := c.tr.now()
	c.tr.leaf(k, t0, t1, c.parent, c.req)
	c.child += t1 - t0
}

// tracedCtx times the calls a goroutine-tier handler makes into the
// scheduler and paging layers as child spans of its request, so the
// handler's self time never includes a park.
type tracedCtx struct {
	workload.Ctx
	reqScope
}

func (c *tracedCtx) Compute(cycles sim.Time) {
	t0 := c.tr.now()
	c.Ctx.Compute(cycles)
	c.end(spCompute, t0)
}

func (c *tracedCtx) Probe() {
	t0 := c.tr.now()
	c.Ctx.Probe()
	c.end(spProbe, t0)
}

func (c *tracedCtx) WaitPage(s *paging.Space, vpn int64) {
	t0 := c.tr.now()
	c.Ctx.WaitPage(s, vpn)
	c.end(spWaitPage, t0)
}

func (c *tracedCtx) Block(enqueue func(wake func())) {
	t0 := c.tr.now()
	c.Ctx.Block(enqueue)
	c.end(spBlock, t0)
}

// tracedStepper is the flat-tier counterpart of the Handler wrapper: one
// root span per Step call.
type tracedStepper struct {
	inner workload.StepHandler
	tr    *tracer
}

func (s tracedStepper) Begin(f *workload.StepFrame, payload any) {
	s.inner.Begin(f, payload.(tagged).p)
}

func (s tracedStepper) Step(ctx workload.StepCtx, f *workload.StepFrame, payload any) (any, int, workload.StepStatus) {
	t := s.tr
	tg := payload.(tagged)
	c := &tracedStepCtx{StepCtx: ctx, reqScope: reqScope{tr: t, req: tg.id}}
	t0 := t.now()
	c.parent = t.open(spStep, t0, tg.id)
	resp, n, st := s.inner.Step(c, f, tg.p)
	t.close(c.parent, spStep, t0, t.now(), c.child)
	return resp, n, st
}

// tracedStepCtx times a flat-tier step's calls. TryLoadU64 and
// TryStoreU64 never block, so their spans time the paging hit path alone.
type tracedStepCtx struct {
	workload.StepCtx
	reqScope
}

func (c *tracedStepCtx) Compute(cycles sim.Time) {
	t0 := c.tr.now()
	c.StepCtx.Compute(cycles)
	c.end(spCompute, t0)
}

func (c *tracedStepCtx) Probe() {
	t0 := c.tr.now()
	c.StepCtx.Probe()
	c.end(spProbe, t0)
}

func (c *tracedStepCtx) TryLoadU64(s *paging.Space, off int64) (uint64, bool) {
	t0 := c.tr.now()
	v, ok := c.StepCtx.TryLoadU64(s, off)
	c.end(spTryLoad, t0)
	return v, ok
}

func (c *tracedStepCtx) TryStoreU64(s *paging.Space, off int64, v uint64) bool {
	t0 := c.tr.now()
	ok := c.StepCtx.TryStoreU64(s, off, v)
	c.end(spTryStore, t0)
	return ok
}
