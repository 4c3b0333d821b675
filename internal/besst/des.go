package besst

import (
	"fmt"

	"besst/internal/des"
	"besst/internal/stats"
)

// DES-mode implementation: one component per rank plus a collective
// coordinator. Every Comm/Ckpt instruction is a synchronization point:
// ranks report arrival to the coordinator; when the last rank arrives
// the coordinator charges the communication (or checkpoint-instance)
// cost and releases everyone.
//
// Every rank runs the same program, so the simulation walks it once:
// seg holds the dynamic instructions from one sync up to and including
// the next, and each rank keeps only its index into it. The coordinator
// refills seg when the last rank arrives, while every rank is blocked,
// so seg holds at most the longest sync-free stretch of the program —
// a few entries for LULESH and CMT-bone, whose every step syncs, but
// the whole unrolled program for one with no Comm or Ckpt (see
// CompiledRun).

// Payload kinds on des.Payload.Kind. The protocol is the kind alone,
// so the steady-state event path never boxes a payload.
const (
	pkAdvance int32 = iota + 1 // start or resume a rank's program (self event)
	pkArrive                   // rank -> coordinator
	pkRelease                  // coordinator -> rank
)

// rankComp executes the compiled program for one rank.
type rankComp struct {
	sim     *desSim
	rank    int
	toCoord des.LinkID // rank -> coordinator
	pc      int        // the rank's next index into sim.seg
	rng     *stats.RNG
	// waitSince is when the rank last arrived at a sync (breakdown
	// accounting, rank 0 only).
	waitSince des.Time
}

// coordComp synchronizes collective instructions. Events arrive in
// time order, so its clock is the latest arrival.
type coordComp struct {
	sim *desSim
	// arrived counts the ranks at the open sync. Every Comm and Ckpt is
	// a global barrier, so at most one sync is open at a time and one
	// counter serves them all; a neighbour-only halo would break this.
	// It re-zeroes as each sync completes, ready for the next trial.
	arrived int
	// done is the sync the ranks last completed, for rank 0's
	// breakdown.
	done    *cinstr
	release []des.LinkID // rank -> coordinator-to-rank link handle
	rng     *stats.RNG
}

// desSim is one fully wired DES simulation of a CompiledRun. Engines,
// components, links, and RNG allocations are built once and recycled
// through CompiledRun.desPool; reset rewinds everything per trial.
type desSim struct {
	cr     *CompiledRun
	cfg    RunConfig
	eng    *des.Engine
	res    *Result
	ranks  []des.ComponentID
	coord  des.ComponentID
	coordC *coordComp
	rankC  []*rankComp
	ends   []des.Time // per-rank completion time
	w      walker     // the simulation's one walk of the program
	seg    []*cinstr  // the walk's next sync-free stretch and its sync
}

// newDesSim builds and wires a simulation for cr. All per-trial state
// is set by reset.
func newDesSim(cr *CompiledRun) *desSim {
	s := &desSim{
		cr:    cr,
		eng:   des.NewEngine(),
		ranks: make([]des.ComponentID, 0, cr.app.Ranks),
		rankC: make([]*rankComp, 0, cr.app.Ranks),
		ends:  make([]des.Time, cr.app.Ranks),
	}
	s.coordC = &coordComp{
		sim:     s,
		release: make([]des.LinkID, 0, cr.app.Ranks),
		rng:     new(stats.RNG),
	}
	s.coord = s.eng.Register(s.coordC)
	for r := 0; r < cr.app.Ranks; r++ {
		rc := &rankComp{sim: s, rank: r, rng: new(stats.RNG)}
		id := s.eng.Register(rc)
		s.ranks = append(s.ranks, id)
		s.rankC = append(s.rankC, rc)
		rc.toCoord = s.eng.Connect(id, s.coord, 0)
		s.coordC.release = append(s.coordC.release, s.eng.Connect(s.coord, id, 0))
	}
	return s
}

// reset rewinds the simulation for one trial: the engine goes back to
// time zero keeping its queue capacity, every RNG is reseeded in place
// to the exact stream a fresh build would draw (coordinator first, then
// ranks in order — the seed engine's Split order), and the walk
// restarts with every rank at the front of its first stretch. The
// result object is fresh per trial since callers keep it.
func (s *desSim) reset(cfg RunConfig, stream int) {
	s.cfg = cfg
	var master stats.RNG
	master.Reseed(cfg.Seed)
	master.SplitTo(s.coordC.rng)
	for _, rc := range s.rankC {
		master.SplitTo(rc.rng)
		rc.pc = 0
	}
	s.w = s.cr.walker(s.w.stack)
	s.fill()
	for i := range s.ends {
		s.ends[i] = 0
	}
	s.res = &Result{
		StepCompletions: make([]float64, 0, s.cr.steps),
		CkptTimes:       make([]float64, 0, s.cr.ckpts),
	}
	s.eng.Reset()
	s.eng.SetTracer(cfg.Tracer, stream)
}

// fill refills seg with the walk's next dynamic instructions, through
// the next sync or the end of the program.
func (s *desSim) fill() {
	s.seg = s.seg[:0]
	for c := s.w.next(); c != nil; c = s.w.next() {
		s.seg = append(s.seg, c)
		if c.kind == ckComm || c.kind == ckCkpt {
			return
		}
	}
}

// simulateDES runs one DES-mode replication. stream tags tracer hooks
// so trials sharing one tracer stay distinguishable (Replicate passes
// the trial index).
func simulateDES(cr *CompiledRun, cfg RunConfig, stream int) *Result {
	s, _ := cr.desPool.Get().(*desSim)
	if s == nil {
		s = newDesSim(cr)
	}
	res := s.run(cfg, stream)
	// Only a run that completed normally goes back to the pool: a panic
	// mid-run would leave a dirty arrival count and queued events.
	cr.desPool.Put(s)
	return res
}

// run resets the simulation and runs one trial on it.
func (s *desSim) run(cfg RunConfig, stream int) *Result {
	s.reset(cfg, stream)
	for _, id := range s.ranks {
		s.eng.ScheduleAt(0, id, des.Payload{Kind: pkAdvance})
	}
	s.eng.Run(0)
	if cfg.Collector != nil {
		cfg.Collector.EngineTotals(s.eng.Processed(), s.eng.PeakQueueDepth())
	}
	// Makespan: the slowest rank's completion.
	var max des.Time
	for _, t := range s.ends {
		if t > max {
			max = t
		}
	}
	res := s.res
	res.Makespan = max.Seconds()
	res.Events = s.eng.Processed()
	s.res = nil
	return res
}

// HandleEvent advances the rank's program until it blocks on a
// collective or schedules compute time.
func (rc *rankComp) HandleEvent(ctx *des.Context, ev des.Event) {
	s := rc.sim
	if ev.Payload.Kind == pkRelease {
		rc.pc = 0 // the coordinator refilled seg
		if rc.rank == 0 {
			// Charge the blocked interval (wait for stragglers + the
			// collective/checkpoint cost itself) to the right bucket.
			elapsed := (ctx.Now() - rc.waitSince).Seconds()
			if s.coordC.done.kind == ckCkpt {
				s.res.Breakdown.CkptSec += elapsed
			} else {
				s.res.Breakdown.CommSec += elapsed
			}
		}
	}
	for rc.pc < len(s.seg) {
		c := s.seg[rc.pc]
		rc.pc++
		switch c.kind {
		case ckComp:
			var dt float64
			if s.cfg.MonteCarlo {
				dt = c.sample(rc.rng)
			} else {
				dt = c.detCost
			}
			if rc.rank == 0 {
				s.res.Breakdown.ComputeSec += dt
			}
			ctx.ScheduleSelf(des.FromSeconds(dt), des.Payload{Kind: pkAdvance})
			return
		case ckComm, ckCkpt:
			rc.waitSince = ctx.Now()
			ctx.Send(rc.toCoord, 0, des.Payload{Kind: pkArrive})
			return // resume on release
		case ckLoop: // a step ended
			if rc.rank == 0 {
				s.res.StepCompletions = append(s.res.StepCompletions, ctx.Now().Seconds())
			}
		}
	}
	s.ends[rc.rank] = ctx.Now()
}

// HandleEvent gathers arrivals and releases ranks when complete.
func (cc *coordComp) HandleEvent(ctx *des.Context, ev des.Event) {
	p := ev.Payload
	if p.Kind != pkArrive {
		// Anything but an arrival reaching the coordinator means the
		// wiring or protocol is broken; match the engine's policy that
		// wiring errors are construction bugs, not runtime conditions.
		panic(fmt.Sprintf(
			"besst: coordinator received payload kind %d at %v; only arrivals are wired here",
			p.Kind, ctx.Now()))
	}
	s := cc.sim
	cc.arrived++
	if cc.arrived < s.cr.app.Ranks {
		return
	}
	cc.arrived = 0

	// All ranks arrived (the coordinator's clock is already at the
	// latest arrival, since events are processed in time order), all
	// at the sync that ends seg.
	c := s.seg[len(s.seg)-1]
	cc.done = c
	var cost float64
	switch c.kind {
	case ckComm:
		cost = c.detCost
	case ckCkpt:
		if s.cfg.MonteCarlo {
			cost = c.sample(cc.rng) // one coordinated draw
		} else {
			cost = c.detCost
		}
		s.res.CkptTimes = append(s.res.CkptTimes, ctx.Now().Seconds()+cost)
	}
	s.fill()
	extra := des.FromSeconds(cost)
	release := des.Payload{Kind: pkRelease}
	for _, l := range cc.release {
		ctx.Send(l, extra, release)
	}
}
