// Package des implements the component-based discrete-event simulation
// engine that FT-BESST is built on. It plays the role of Sandia's
// Structural Simulation Toolkit (SST) in the original BE-SST stack: it
// owns simulated time, delivers timestamped events between components
// over latency links, and executes them sequentially in timestamp order.
//
// The engine is deliberately coarse-grained. BE-SST components exchange
// on the order of one event per modeled application block, so the engine
// optimizes for deterministic ordering and cheap scheduling rather than
// for cycle-level throughput. There is no parallel executor: the
// zero-latency collective links of a compiled BE-SST program leave no
// lookahead to partition on, so parallelism lives a level up, across
// Monte Carlo trials and sweep points (internal/par) and campaign
// shards (internal/dist).
package des

import (
	"fmt"
	"time"
)

// Time is a simulated timestamp in nanoseconds since the start of the
// simulation. Nanosecond resolution is fine-grained enough for the
// microsecond-to-second events behavioral emulation produces while
// keeping the arithmetic exact (no floating-point clock drift over long
// runs).
type Time int64

// Common construction helpers for simulated durations.
const (
	Nanosecond  Time = 1
	Microsecond      = 1000 * Nanosecond
	Millisecond      = 1000 * Microsecond
	Second           = 1000 * Millisecond
)

// FromSeconds converts a floating-point duration in seconds to simulated
// time, rounding to the nearest nanosecond. Negative durations clamp to
// zero: performance models can produce tiny negative values from
// regression extrapolation, and the simulator treats those as free.
func FromSeconds(s float64) Time {
	if s <= 0 {
		return 0
	}
	return Time(s*1e9 + 0.5)
}

// Seconds returns t as a floating-point number of seconds.
func (t Time) Seconds() float64 { return float64(t) / 1e9 }

// Duration converts a simulated interval to a time.Duration for display.
func (t Time) Duration() time.Duration { return time.Duration(t) }

func (t Time) String() string {
	return fmt.Sprintf("%.6fs", t.Seconds())
}
