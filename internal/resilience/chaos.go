package resilience

import (
	"fmt"
	"os"
	"time"

	"besst/internal/par"
	"besst/internal/stats"
)

// ChaosConfig parameterizes the deterministic fault injector used to
// stress the campaign runner: before each trial attempt it may inject a
// delay, a panic, or both, each decided by a coin flip from an RNG
// derived purely from (chaos seed, trial index, attempt). The same
// config therefore produces the same fault schedule on every run and at
// every worker count — chaos tests are as reproducible as the
// simulations they harden. The zero value injects nothing.
type ChaosConfig struct {
	// PanicRate is the per-attempt probability of an injected panic
	// (simulating a crashed worker or a poison trial).
	PanicRate float64
	// DelayRate is the per-attempt probability of an injected delay of
	// up to 2ms (simulating a straggling or descheduled worker).
	DelayRate float64
	// KillRate is the per-attempt probability of an injected process
	// kill — the total loss of a worker, dying mid-shard with no
	// chance to recover, flush, or answer its coordinator. Unlike
	// PanicRate (which the retry machinery absorbs in-process), a kill
	// is only survivable by an *external* layer: journal resume or
	// replica reassignment.
	KillRate float64
	// Kill performs the injected kill. Nil selects the real thing —
	// SIGKILL on the running process. Tests override it to observe the
	// decision without dying.
	Kill func()
	// Seed drives the injector's RNG, independent of trial seeds.
	Seed uint64
}

// maxChaosDelay bounds an injected delay.
const maxChaosDelay = 2 * time.Millisecond

// enabled reports whether the config injects anything.
func (c ChaosConfig) enabled() bool {
	return c.PanicRate > 0 || c.DelayRate > 0 || c.KillRate > 0
}

// chaosPanic is the injected panic value, recognizable in quarantine
// provenance.
type chaosPanic struct {
	index, attempt int
}

func (p chaosPanic) String() string {
	return fmt.Sprintf("chaos: injected panic at trial %d attempt %d", p.index, p.attempt)
}

// Injector is a materialized ChaosConfig for an n-trial campaign, with
// one pre-drawn base seed per trial index (the same SeedFan discipline
// the simulator uses, so injection never depends on completion order).
// It is exported so out-of-process executors (besst-worker) can run the
// same deterministic fault schedule the in-process campaign runner
// does.
type Injector struct {
	cfg   ChaosConfig
	seeds []uint64
}

// NewInjector materializes the config for an n-unit campaign; a
// disabled config yields nil, which Inject treats as a no-op.
func (c ChaosConfig) NewInjector(n int) *Injector {
	if !c.enabled() {
		return nil
	}
	if c.Kill == nil {
		c.Kill = killSelf
	}
	return &Injector{cfg: c, seeds: par.SeedFan(c.Seed, n)}
}

// killSelf is the real kill action: SIGKILL the running process, the
// one signal no deferred recovery can intercept.
func killSelf() {
	p, err := os.FindProcess(os.Getpid())
	if err != nil {
		panic(fmt.Sprintf("chaos: cannot find own process: %v", err))
	}
	_ = p.Kill()
	// SIGKILL delivery is asynchronous; never let this trial proceed.
	select {}
}

// attemptSeed derives the RNG seed for one (trial, attempt) pair from
// the trial's base seed via a splitmix64 step, so every retry of a
// trial sees an independent — but fixed — fault decision.
func attemptSeed(base uint64, attempt int) uint64 {
	x := base + uint64(attempt)*0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// Inject runs the fault decisions for one trial attempt: possibly
// sleep, possibly kill the process, possibly panic. Called inside the
// recover() guard, so an injected panic exercises exactly the retry
// path a real one would. The decision stream is fixed by
// (seed, index, attempt) alone — the same schedule fires at any worker
// count, in any process, in any order.
func (in *Injector) Inject(index, attempt int) {
	if in == nil {
		return
	}
	rng := stats.NewRNG(attemptSeed(in.seeds[index], attempt))
	if rng.Float64() < in.cfg.DelayRate {
		frac := rng.Float64()
		time.Sleep(time.Duration(frac * float64(maxChaosDelay)))
	}
	if rng.Float64() < in.cfg.KillRate {
		in.cfg.Kill()
	}
	if rng.Float64() < in.cfg.PanicRate {
		panic(chaosPanic{index: index, attempt: attempt})
	}
}
