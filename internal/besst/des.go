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
// seg holds the dynamic instructions after one release up to and
// including the next run of syncs, and each rank keeps only its index
// into it. The coordinator refills seg when the last rank arrives,
// while every rank is blocked, so seg holds at most the longest
// sync-free stretch of the program plus the longest run of back-to-back
// syncs — a few entries for LULESH and CMT-bone, whose every step
// syncs, but the whole unrolled program for one with no Comm or Ckpt
// (see CompiledRun).
//
// Every sync is a global barrier, so a run of syncs with no compute
// and no step end between them is fused: the ranks arrive once, and
// the coordinator charges each sync of the run in order and releases
// once, at the time the chain of per-sync releases would have ended.
// A rank whose compute ends at a sync sends its arrival with the
// compute time as extra delay instead of waking itself first. Both
// keep every result byte (DESIGN.md); Result.Events still counts the
// events of the unfused protocol, from the compiled program. A model
// of neighbour-only syncs would have to fuse only runs of global ones.

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
	// arrived counts the ranks at the open sync run. Every Comm and
	// Ckpt is a global barrier, so at most one run is open at a time
	// and one counter serves them all; a neighbour-only halo would
	// break this. It re-zeroes as each run completes, ready for the
	// next trial.
	arrived int
	// done holds each sync of the run the ranks last completed, in
	// order, with the time its own release would have reached them,
	// for rank 0's breakdown.
	done    []doneSync
	release []des.LinkID // rank -> coordinator-to-rank link handle
	rng     *stats.RNG
}

// doneSync is one charged sync of a fused run.
type doneSync struct {
	at   des.Time // the sync's release time
	ckpt bool     // a checkpoint instance, else a Comm
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
	seg    []*cinstr  // the walk's next sync-free stretch and its sync run
	carry  *cinstr    // the instruction fill read past seg's sync run
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
	s.carry = s.w.next()
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

// fill refills seg with the walk's next dynamic instructions, from
// carry through the next run of back-to-back syncs or the end of the
// program, and keeps the instruction after the run in carry.
func (s *desSim) fill() {
	s.seg = s.seg[:0]
	inRun := false
	c := s.carry
	for ; c != nil; c = s.w.next() {
		if inRun && !c.isSync() {
			break
		}
		inRun = c.isSync()
		s.seg = append(s.seg, c)
	}
	s.carry = c
}

// isSync reports whether c is a synchronization point: a Comm or a
// Ckpt.
func (c *cinstr) isSync() bool { return c.kind == ckComm || c.kind == ckCkpt }

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
	s.eng.Run()
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
	res.Events = s.cr.events
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
			// Charge each blocked interval of the run (the wait for
			// stragglers, then each collective/checkpoint cost) to its
			// bucket, as the chain of per-sync releases would have.
			since := rc.waitSince
			for _, d := range s.coordC.done {
				elapsed := (d.at - since).Seconds()
				if d.ckpt {
					s.res.Breakdown.CkptSec += elapsed
				} else {
					s.res.Breakdown.CommSec += elapsed
				}
				since = d.at
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
			d := des.FromSeconds(dt)
			if rc.pc < len(s.seg) && s.seg[rc.pc].isSync() {
				// The compute ends at a sync: arrive then, with no
				// self event in between.
				rc.waitSince = ctx.Now() + d
				ctx.Send(rc.toCoord, d, des.Payload{Kind: pkArrive})
				return
			}
			ctx.ScheduleSelf(d, des.Payload{Kind: pkAdvance})
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
	// at the sync run that ends seg. Charge each sync in order, each
	// from the previous one's release, in the same integer nanoseconds
	// the chain of per-sync releases would add.
	cc.done = cc.done[:0]
	run := len(s.seg)
	for run > 0 && s.seg[run-1].isSync() {
		run--
	}
	at := ctx.Now()
	for _, c := range s.seg[run:] {
		cost := c.detCost
		if c.kind == ckCkpt {
			if s.cfg.MonteCarlo {
				cost = c.sample(cc.rng) // one coordinated draw
			}
			s.res.CkptTimes = append(s.res.CkptTimes, at.Seconds()+cost)
		}
		at += des.FromSeconds(cost)
		cc.done = append(cc.done, doneSync{at: at, ckpt: c.kind == ckCkpt})
	}
	s.fill()
	extra := at - ctx.Now()
	release := des.Payload{Kind: pkRelease}
	for _, l := range cc.release {
		ctx.Send(l, extra, release)
	}
}
