package workload

import (
	"repro/internal/paging"
	"repro/internal/sim"
)

// This file defines the resumable-step execution contract behind the
// scheduler's flat unithread tier. The paper's central cost argument
// (§3.2, Table 1) is that a unithread needs only an 80-byte light
// context because it suspends at known call boundaries; the coroutine-
// backed Unithread models the *timing* of that but still pays a
// coroutine switch per suspend in wall-clock terms — a request round
// trip with 8 faults costs 11.2 µs there against 6.5 µs flat
// (BenchmarkSchedRequestRoundTrip; see sched/flat.go). An app that can
// express its handler as explicit steps — each call runs to the next
// fault point and parks its continuation state in a StepFrame — lets the
// scheduler run requests inline on the worker's own process with no
// second coroutine at all. Stack-dependent apps (B-trees mid-descent,
// SQL scans) keep the goroutine tier; both tiers execute the identical
// simulated schedule.

// StepStatus is the outcome of one StepHandler.Step call.
type StepStatus int

const (
	// StepDone: the request finished; resp/respBytes are valid.
	StepDone StepStatus = iota
	// StepFault: the step hit a non-resident page (a TryLoad/TryStore
	// returned !ok). The scheduler drives the fault and re-invokes Step
	// once the page is resident; the frame must let the handler resume
	// from (or idempotently repeat up to) the faulting access.
	StepFault
)

// StepFrame is the explicit continuation of a flat unithread between
// Step calls: a program counter plus nine spill words. Its size is
// pinned to the paper's 80-byte light context (uctx.LightContext) by
// TestStepFrameSize — the frame IS the light context of this tier.
type StepFrame struct {
	PC uint64    // handler-defined phase counter
	W  [9]uint64 // handler-defined spill slots
}

// StepCtx is the execution context handed to Step. It is the flat-tier
// counterpart of Ctx: compute charging, probes, and critical sections
// behave identically, but paged accesses are non-blocking — a miss
// returns ok=false and the handler must return StepFault with its frame
// positioned to retry the access. The flat tier never runs under a
// preemptive configuration, so Probe and CriticalEnter/Exit are
// semantically no-ops kept for contract parity.
type StepCtx interface {
	// Compute charges cycles of application CPU work on the current core.
	Compute(cycles sim.Time)
	// Probe is the preemption probe (free on this tier — flat unithreads
	// only run under non-preemptive configurations).
	Probe()
	// Rand is the run's deterministic random source.
	Rand() *sim.RNG
	// CriticalEnter / CriticalExit bracket critical sections.
	CriticalEnter()
	CriticalExit()

	// TryLoadU64 reads a little-endian uint64 at off if the containing
	// page is resident; on a miss it records the faulting page and
	// returns ok=false — the handler must then return StepFault. The
	// access must not span pages.
	TryLoadU64(s *paging.Space, off int64) (v uint64, ok bool)
	// TryStoreU64 is the store counterpart (write-allocate: the page is
	// faulted in on a miss, then the resumed step stores and dirties it).
	TryStoreU64(s *paging.Space, off int64, v uint64) (ok bool)
}

// StepHandler is the resumable-step form of a request handler. Begin
// initializes the frame for a fresh request; Step advances the request
// to its next fault point or completion. After a StepFault the scheduler
// re-invokes Step with the same frame once the faulted page is resident;
// the first paged access the re-run performs must be the one that
// faulted (the paging layer accounts the retried access as the tail of
// the same fault, not a fresh hit — see Space.TryPage).
type StepHandler interface {
	Begin(f *StepFrame, payload any)
	Step(ctx StepCtx, f *StepFrame, payload any) (resp any, respBytes int, st StepStatus)
}

// StepApp is implemented by apps that can run on the flat unithread
// tier in addition to the goroutine tier. Both forms must execute the
// identical sequence of compute charges, probes, paged accesses, and
// RNG draws — the scheduler's differential tests pin this.
type StepApp interface {
	App
	StepHandler() StepHandler
}
