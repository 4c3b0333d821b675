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

// Payload kinds on des.Payload.Kind. The protocol encodes entirely into
// the typed fields — pkArrive carries the rank in B — so the
// steady-state event path never boxes a payload.
const (
	pkAdvance int32 = iota + 1 // resume a rank's program (self event or release)
	pkArrive                   // rank -> coordinator: B = rank
	pkRelease                  // coordinator -> rank
)

// rankComp executes the compiled program for one rank.
type rankComp struct {
	sim     *desSim
	rank    int
	toCoord des.LinkID // rank -> coordinator
	w       walker     // frames in desSim's slab
	rng     *stats.RNG
	// sync is the Comm/Ckpt instruction the rank last arrived at, and
	// waitSince when (breakdown accounting, rank 0 only); the
	// coordinator reads sync from the last arriving rank.
	sync      *cinstr
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
	// One slab holds every rank's walker frames, cr.depth each.
	frames, d := make([]frame, cr.app.Ranks*cr.depth), cr.depth
	for r := 0; r < cr.app.Ranks; r++ {
		rc := &rankComp{sim: s, rank: r, rng: new(stats.RNG)}
		rc.w.stack = frames[r*d : r*d : (r+1)*d]
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
// ranks in order — the seed engine's Split order), and every rank
// restarts its walk. The result object is fresh per trial since callers
// keep it.
func (s *desSim) reset(cfg RunConfig, stream int) {
	s.cfg = cfg
	var master stats.RNG
	master.Reseed(cfg.Seed)
	master.SplitTo(s.coordC.rng)
	for _, rc := range s.rankC {
		master.SplitTo(rc.rng)
		rc.w = s.cr.walker(rc.w.stack)
	}
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

// simulateDES runs one DES-mode replication. stream tags tracer hooks
// so trials sharing one tracer stay distinguishable (Replicate passes
// the trial index).
func simulateDES(cr *CompiledRun, cfg RunConfig, stream int) *Result {
	s, _ := cr.desPool.Get().(*desSim)
	if s == nil {
		s = newDesSim(cr)
	}
	s.reset(cfg, stream)
	for r := 0; r < cr.app.Ranks; r++ {
		s.eng.ScheduleAt(0, s.ranks[r], des.Payload{Kind: pkAdvance})
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
	// Only a run that completed normally goes back to the pool: a panic
	// mid-run would leave a dirty arrival count and queued events.
	s.res = nil
	cr.desPool.Put(s)
	return res
}

// HandleEvent advances the rank's program until it blocks on a
// collective or schedules compute time.
func (rc *rankComp) HandleEvent(ctx *des.Context, ev des.Event) {
	s := rc.sim
	if rc.rank == 0 && ev.Payload.Kind == pkRelease {
		// A release just arrived: charge the blocked interval (wait
		// for stragglers + the collective/checkpoint cost itself) to
		// the right bucket.
		elapsed := (ctx.Now() - rc.waitSince).Seconds()
		if rc.sync.kind == ckCkpt {
			s.res.Breakdown.CkptSec += elapsed
		} else {
			s.res.Breakdown.CommSec += elapsed
		}
	}
	for c := rc.w.next(); c != nil; c = rc.w.next() {
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
			rc.sync, rc.waitSince = c, ctx.Now()
			ctx.Send(rc.toCoord, 0, des.Payload{Kind: pkArrive, B: int64(rc.rank)})
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
	// at the same sync instruction.
	c := s.rankC[p.B].sync
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
	extra := des.FromSeconds(cost)
	release := des.Payload{Kind: pkRelease}
	for _, l := range cc.release {
		ctx.Send(l, extra, release)
	}
}
