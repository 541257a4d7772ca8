// Package sim provides a deterministic, process-oriented discrete-event
// simulation kernel.
//
// Simulated time is counted in CPU cycles of the modeled machine (an Intel
// Xeon Gold 6330 at 2.0 GHz, the paper's compute node), so latency
// breakdowns reported in cycles by the paper are directly comparable to
// values produced here.
//
// The kernel supports two styles of simulated activity:
//
//   - plain events: a callback scheduled at an absolute time, and
//   - processes (Proc): coroutines that run strictly one at a time under
//     the control of the event loop and can block on time (Sleep), on
//     queues, or on gates. Processes let complex control flow — a B-tree
//     descent that takes a page fault halfway down — be written as
//     ordinary straight-line Go.
//
// Determinism: exactly one process runs at any instant, events at equal
// timestamps fire in schedule order, and all randomness is drawn from a
// seeded PRNG owned by the environment.
package sim

import "fmt"

// Time is a point (or span) of simulated time, measured in CPU cycles.
type Time int64

// CyclesPerSec is the modeled core frequency: 2.0 GHz, matching the
// paper's Xeon Gold 6330 compute node.
const CyclesPerSec = 2_000_000_000

// CyclesPerMicro is the number of cycles in one microsecond.
const CyclesPerMicro = CyclesPerSec / 1_000_000

// Micros converts microseconds to cycles.
func Micros(us float64) Time { return Time(us * CyclesPerMicro) }

// Millis converts milliseconds to cycles.
func Millis(ms float64) Time { return Time(ms * 1000 * CyclesPerMicro) }

// Seconds converts seconds to cycles.
func Seconds(s float64) Time { return Time(s * CyclesPerSec) }

// Micros reports t expressed in microseconds.
func (t Time) Micros() float64 { return float64(t) / CyclesPerMicro }

// Millis reports t expressed in milliseconds.
func (t Time) Millis() float64 { return float64(t) / (1000 * CyclesPerMicro) }

// Seconds reports t expressed in seconds.
func (t Time) Seconds() float64 { return float64(t) / CyclesPerSec }

// String formats t with an adaptive unit for logs and error messages.
func (t Time) String() string {
	switch {
	case t < 10*CyclesPerMicro:
		return fmt.Sprintf("%dcy", int64(t))
	case t < Millis(10):
		return fmt.Sprintf("%.2fus", t.Micros())
	case t < Seconds(10):
		return fmt.Sprintf("%.2fms", t.Millis())
	default:
		return fmt.Sprintf("%.2fs", t.Seconds())
	}
}
