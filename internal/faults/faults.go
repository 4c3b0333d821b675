// Package faults implements the fault-injection capability the paper
// plans as the next BE-SST extension (Cases 2 and 4 of its Fig 4):
// simulating application runs under node failures, without
// fault-tolerance (restart from scratch) and with multi-level FTI
// checkpointing (restore from the cheapest sufficient level).
//
// Failures arrive per node as a Poisson process (or Weibull renewal
// process for infant-mortality studies); each failure is soft (local
// storage survives) or hard (node and storage lost), and occasionally
// correlated bursts take out several nodes at once (a switch or PSU
// domain failing) — the scenario that separates FTI level guarantees.
package faults

import (
	"fmt"
	"math"

	"besst/internal/fti"
	"besst/internal/stats"
)

// FaultModel describes the failure behaviour of a machine partition.
type FaultModel struct {
	// Nodes is the number of nodes the job occupies (only their
	// failures interrupt the job).
	Nodes int
	// FaultsPerNodeHour is each node's failure rate.
	FaultsPerNodeHour float64
	// HardFraction is the probability a failure loses node-local
	// storage.
	HardFraction float64
	// WeibullShape, when > 0 and != 1, draws inter-arrival times from
	// a Weibull renewal process with this shape instead of the
	// exponential (shape < 1 models infant mortality).
	WeibullShape float64
	// CorrelatedProb is the probability a failure event is a
	// correlated burst; CorrelatedSize nodes (contiguous, so usually
	// within one FTI group) fail together, all hard.
	CorrelatedProb float64
	CorrelatedSize int
}

// Validate panics on nonsense.
func (f FaultModel) Validate() {
	if f.Nodes <= 0 || f.FaultsPerNodeHour < 0 || f.HardFraction < 0 || f.HardFraction > 1 {
		panic("faults: invalid FaultModel")
	}
	if f.CorrelatedProb < 0 || f.CorrelatedProb > 1 {
		panic("faults: invalid correlated probability")
	}
}

// SystemMTBFSeconds returns the aggregate mean time between failures
// across all job nodes, in seconds.
func (f FaultModel) SystemMTBFSeconds() float64 {
	//lint:ignore floateq exact zero rate is the injection-disabled sentinel
	if f.FaultsPerNodeHour == 0 {
		return math.Inf(1)
	}
	return 3600 / (f.FaultsPerNodeHour * float64(f.Nodes))
}

// nextFailure draws the time to the next system-wide failure event in
// seconds.
func (f FaultModel) nextFailure(rng *stats.RNG) float64 {
	//lint:ignore floateq exact zero rate is the injection-disabled sentinel
	if f.FaultsPerNodeHour == 0 {
		return math.Inf(1)
	}
	rate := f.FaultsPerNodeHour * float64(f.Nodes) / 3600 // per second
	//lint:ignore floateq shape exactly 1 degenerates Weibull to the exponential path
	if f.WeibullShape > 0 && f.WeibullShape != 1 {
		// Scale chosen so the mean matches 1/rate:
		// E[Weibull(k, lambda)] = lambda * Gamma(1 + 1/k).
		scale := 1 / rate / math.Gamma(1+1/f.WeibullShape)
		return rng.Weibull(f.WeibullShape, scale)
	}
	return rng.Exponential(rate)
}

// drawFailures materializes the node set of one failure event.
func (f FaultModel) drawFailures(rng *stats.RNG) []fti.Failure {
	if f.CorrelatedProb > 0 && f.CorrelatedSize > 1 && rng.Float64() < f.CorrelatedProb {
		base := rng.Intn(f.Nodes)
		out := make([]fti.Failure, 0, f.CorrelatedSize)
		for i := 0; i < f.CorrelatedSize && i < f.Nodes; i++ {
			out = append(out, fti.Failure{Node: (base + i) % f.Nodes, Kind: fti.HardFailure})
		}
		return out
	}
	kind := fti.SoftFailure
	if rng.Float64() < f.HardFraction {
		kind = fti.HardFailure
	}
	return []fti.Failure{{Node: rng.Intn(f.Nodes), Kind: kind}}
}

// JobSpec describes the application run being injected.
type JobSpec struct {
	// Steps is the number of timesteps to complete.
	Steps int
	// StepSec is the duration of one timestep (compute + comm).
	StepSec float64
	// Schedules lists the enabled checkpoint levels with their
	// periods (empty for Case 2, no fault tolerance).
	Schedules []CkptSchedule
	// CkptSec returns the checkpoint-instance duration per level.
	CkptSec func(fti.Level) float64
	// RestartSec returns the restore duration per level.
	RestartSec func(fti.Level) float64
	// ScratchRestartSec is the relaunch cost when no checkpoint can
	// recover (or none exists): requeue plus reinitialization.
	ScratchRestartSec float64
	// MaxWallSec, when positive, truncates runs that exceed it (a
	// no-FT job under heavy failures may otherwise never finish —
	// restart-from-scratch diverges once the solve time passes the
	// failure MTBF). Truncated runs report Truncated=true with
	// WallSec = MaxWallSec, a censored observation.
	MaxWallSec float64
}

// CkptSchedule pairs a level with its period in timesteps.
type CkptSchedule struct {
	Level  fti.Level
	Period int
}

// Validate panics on an unusable spec.
func (j JobSpec) Validate() {
	if j.Steps <= 0 || j.StepSec <= 0 || j.ScratchRestartSec < 0 {
		panic("faults: invalid JobSpec")
	}
	for _, s := range j.Schedules {
		if !s.Level.Valid() || s.Period <= 0 {
			panic(fmt.Sprintf("faults: invalid schedule %+v", s))
		}
	}
	if len(j.Schedules) > 0 && (j.CkptSec == nil || j.RestartSec == nil) {
		panic("faults: schedules without cost functions")
	}
}

// RunStats reports one injected run.
type RunStats struct {
	// WallSec is the total wall-clock time to complete all steps (or
	// MaxWallSec when Truncated).
	WallSec float64
	// Truncated marks runs cut off at JobSpec.MaxWallSec.
	Truncated bool
	// SolveSec is the useful forward-progress time (Steps*StepSec).
	SolveSec float64
	// CkptSec is time spent taking checkpoints.
	CkptSec float64
	// ReworkSec is recomputation of steps lost to failures.
	ReworkSec float64
	// RestartSec is time spent in recovery I/O and relaunches.
	RestartSec float64
	// Faults counts failure events that interrupted the job.
	Faults int
	// Recovered counts failures recovered from a checkpoint.
	Recovered int
	// Scratch counts restarts from the beginning.
	Scratch int
}

// Efficiency returns SolveSec / WallSec.
func (r RunStats) Efficiency() float64 {
	//lint:ignore floateq division guard; only an exactly zero wall time is degenerate
	if r.WallSec == 0 {
		return 0
	}
	return r.SolveSec / r.WallSec
}

// Run simulates one job execution under fault injection. cfg provides
// the FTI group structure used to decide recoverability of each failure
// set against each enabled level.
func Run(spec JobSpec, fm FaultModel, cfg fti.Config, rng *stats.RNG) RunStats {
	spec.Validate()
	fm.Validate()

	var st RunStats
	st.SolveSec = float64(spec.Steps) * spec.StepSec

	enabled := make([]fti.Level, 0, len(spec.Schedules))
	for _, s := range spec.Schedules {
		enabled = append(enabled, s.Level)
	}

	wall := 0.0
	nextFail := fm.nextFailure(rng)
	step := 0          // completed steps
	lastCkptStep := -1 // last step covered by a persisted checkpoint (-1: none)

	// advance moves the run forward by dur; if a failure lands inside
	// the interval it returns false with wall set to the failure time.
	advance := func(dur float64) bool {
		if wall+dur <= nextFail {
			wall += dur
			return true
		}
		wall = nextFail
		return false
	}

	// recover charges recovery time with continued failure exposure:
	// a failure landing during the recovery window restarts the
	// recovery (the checkpoint being restored lives on stable storage,
	// so its state is unaffected — a simplification for hard failures
	// hitting the restoring node, noted in the package docs). This is
	// the exposure Daly's exp(R/M) factor models; without it injected
	// runs would be artificially immune to failures while restarting.
	recover := func(dur float64) {
		for {
			if wall+dur <= nextFail {
				wall += dur
				st.RestartSec += dur
				return
			}
			st.RestartSec += nextFail - wall
			wall = nextFail
			st.Faults++
			nextFail = wall + fm.nextFailure(rng)
		}
	}

	// fail handles a failure that landed at wall: it draws the failed
	// node set, picks the cheapest level able to recover it, draws the
	// next failure, then restores the last checkpoint (or restarts from
	// scratch) and charges the lost steps as rework. The RNG draw order
	// (failure set, then next failure) is part of the result bytes.
	fail := func() {
		st.Faults++
		failures := fm.drawFailures(rng)
		level := cfg.BestRecoveryLevel(enabled, failures)
		var lost int
		nextFail = wall + fm.nextFailure(rng)
		if level != 0 && lastCkptStep >= 0 {
			st.Recovered++
			recover(spec.RestartSec(level))
			lost = step - (lastCkptStep + 1)
			step = lastCkptStep + 1
		} else {
			st.Scratch++
			recover(spec.ScratchRestartSec)
			lost = step
			step = 0
			lastCkptStep = -1
		}
		if lost < 0 {
			lost = 0
		}
		st.ReworkSec += float64(lost) * spec.StepSec
	}

	for step < spec.Steps {
		if spec.MaxWallSec > 0 && wall >= spec.MaxWallSec {
			st.Truncated = true
			st.WallSec = spec.MaxWallSec
			return st
		}
		// One timestep of forward progress.
		if !advance(spec.StepSec) {
			fail()
			continue
		}
		step++

		// Take any scheduled checkpoints at the end of this step. A
		// failure during checkpointing invalidates the in-progress
		// checkpoint but earlier ones survive.
		for _, s := range spec.Schedules {
			if step%s.Period != 0 {
				continue
			}
			c := spec.CkptSec(s.Level)
			if advance(c) {
				st.CkptSec += c
				lastCkptStep = step - 1
				continue
			}
			fail()
			break // re-enter main loop from the restored step
		}
	}
	st.WallSec = wall
	return st
}

// MonteCarlo runs n injected executions and returns all stats.
func MonteCarlo(spec JobSpec, fm FaultModel, cfg fti.Config, n int, seed uint64) []RunStats {
	if n <= 0 {
		panic("faults: non-positive replication count")
	}
	master := stats.NewRNG(seed)
	out := make([]RunStats, n)
	for i := range out {
		out[i] = Run(spec, fm, cfg, master.Split())
	}
	return out
}

// MeanWall returns the mean wall time of replications.
func MeanWall(runs []RunStats) float64 {
	var xs []float64
	for _, r := range runs {
		xs = append(xs, r.WallSec)
	}
	return stats.Mean(xs)
}
