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
// the typed fields — pkArrive carries (syncID, rank) in (A, B) and
// pkRelease carries syncID in A — so the steady-state event path never
// boxes a payload.
const (
	pkAdvance int32 = iota + 1 // resume a rank's program (self event or release)
	pkArrive                   // rank -> coordinator: A = syncID, B = rank
	pkRelease                  // coordinator -> rank: A = syncID
)

// rankComp executes the compiled program for one rank.
type rankComp struct {
	sim     *desSim
	rank    int
	toCoord des.LinkID // rank -> coordinator
	pc      int
	rng     *stats.RNG
	// breakdown accounting (rank 0 only): the sync instruction rank 0
	// is currently blocked on, and when it arrived there.
	waitKind  ckind
	waitSince des.Time
	waiting   bool
}

// coordComp synchronizes collective instructions. pending is indexed
// directly by syncID (compile assigns them contiguously); each slot is
// zeroed again when its collective completes, so the slice needs no
// per-trial clearing — a finished run leaves it all-zero. The seed
// engine also kept a latest-arrival map, but events arrive in time
// order so the coordinator's clock already is that maximum; the map
// was dead state and is gone.
type coordComp struct {
	sim     *desSim
	pending []int32      // syncID -> arrivals so far
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
		pending: make([]int32, len(cr.syncIdx)),
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
// ranks in order — the seed engine's Split order), and per-rank state
// is zeroed. The result object is fresh per trial since callers keep it.
func (s *desSim) reset(cfg RunConfig, stream int) {
	s.cfg = cfg
	var master stats.RNG
	master.Reseed(cfg.Seed)
	master.SplitTo(s.coordC.rng)
	for _, rc := range s.rankC {
		master.SplitTo(rc.rng)
		rc.pc = 0
		rc.waiting = false
		rc.waitKind = 0
		rc.waitSince = 0
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
	// mid-run would leave dirty coordinator slots and queued events.
	s.res = nil
	cr.desPool.Put(s)
	return res
}

// HandleEvent advances the rank's program until it blocks on a
// collective or schedules compute time.
func (rc *rankComp) HandleEvent(ctx *des.Context, ev des.Event) {
	s := rc.sim
	prog := s.cr.prog
	if rc.rank == 0 && rc.waiting {
		// A release just arrived: charge the blocked interval (wait
		// for stragglers + the collective/checkpoint cost itself) to
		// the right bucket.
		elapsed := (ctx.Now() - rc.waitSince).Seconds()
		if rc.waitKind == ckCkpt {
			s.res.Breakdown.CkptSec += elapsed
		} else {
			s.res.Breakdown.CommSec += elapsed
		}
		rc.waiting = false
	}
	for rc.pc < len(prog) {
		c := &prog[rc.pc]
		switch c.kind {
		case ckComp:
			rc.pc++
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
			rc.pc++
			if rc.rank == 0 {
				rc.waiting = true
				rc.waitKind = c.kind
				rc.waitSince = ctx.Now()
			}
			ctx.Send(rc.toCoord, 0, des.Payload{
				Kind: pkArrive, A: int64(c.syncID), B: int64(rc.rank),
			})
			return // resume on release
		case ckStepEnd:
			rc.pc++
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
	syncID := int(p.A)
	cc.pending[syncID]++
	if int(cc.pending[syncID]) < s.cr.app.Ranks {
		return
	}
	cc.pending[syncID] = 0 // slot reuse: all-zero again between trials

	// All ranks arrived (the coordinator's clock is already at the
	// latest arrival, since events are processed in time order).
	c := &s.cr.prog[s.cr.syncIdx[syncID]]
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
	release := des.Payload{Kind: pkRelease, A: p.A}
	for _, l := range cc.release {
		ctx.Send(l, extra, release)
	}
}
