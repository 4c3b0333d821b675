// Package perfmodel defines the performance-model abstraction at the
// heart of behavioral emulation, and its two implementations from the
// paper's Model Development phase: lookup tables over calibration
// samples (with interpolation between benchmarked points) and symbolic-
// regression models (fitted in package symreg, wrapped here).
//
// When the BE-SST simulator executes an abstract instruction it polls
// the bound Model for a predicted runtime instead of performing the
// computation — the essence of the workflow of Fig 2. Monte Carlo
// simulation draws from the model's sample distribution to reproduce
// machine variance (Fig 1's distribution pop-out).
package perfmodel

import (
	"fmt"
	"sort"
	"strings"

	"besst/internal/stats"
)

// Params is the parameter set of one abstract-instruction invocation,
// e.g. {"epr": 15, "ranks": 216}. Only parameters that affect
// performance appear — the AppBEO design rule quoted in the paper.
type Params map[string]float64

// Get returns the named parameter and panics if it is missing: a model
// being polled without one of its declared parameters is a wiring bug.
func (p Params) Get(name string) float64 {
	v, ok := p[name]
	if !ok {
		panic(fmt.Sprintf("perfmodel: missing parameter %q", name))
	}
	return v
}

// Clone returns a copy of p.
func (p Params) Clone() Params {
	c := make(Params, len(p))
	for k, v := range p {
		c[k] = v
	}
	return c
}

// Key renders p in a canonical ordering, for map keys and diagnostics.
func (p Params) Key() string {
	names := make([]string, 0, len(p))
	for k := range p {
		names = append(names, k)
	}
	sort.Strings(names)
	var b strings.Builder
	for i, k := range names {
		if i > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, "%s=%g", k, p[k])
	}
	return b.String()
}

// Model predicts the runtime of one abstract instruction.
type Model interface {
	// Predict returns the expected runtime in seconds for the given
	// parameters.
	Predict(p Params) float64
	// Sample returns one draw from the model's runtime distribution,
	// for Monte Carlo simulation of machine variance.
	Sample(p Params, rng *stats.RNG) float64
	// Name identifies the model in diagnostics.
	Name() string
}

// LogNormal is implemented by models whose every Monte Carlo draw is
// the prediction scaled by one multiplicative log-normal factor: for
// all p and rng, Sample(p, rng) == Predict(p) * rng.LogNormal(0,
// LogSigma()) bit for bit, and Sample draws nothing from rng when
// LogSigma() is 0. LogSigma must not be negative. A caller that has
// already computed Predict(p) can then draw a sample without evaluating
// the model again.
type LogNormal interface {
	Model
	LogSigma() float64
}

// Constant is a trivial model returning a fixed duration; useful for
// fixed overheads and in tests.
type Constant struct {
	Label   string
	Seconds float64
}

// Predict implements Model.
func (c Constant) Predict(Params) float64 { return c.Seconds }

// Sample implements Model.
func (c Constant) Sample(Params, *stats.RNG) float64 { return c.Seconds }

// Name implements Model.
func (c Constant) Name() string { return c.Label }

// Func adapts a plain function into a deterministic Model. The paper's
// ground-truth cost functions are exposed to the simulator this way in
// oracle-model ablations.
type Func struct {
	Label string
	F     func(Params) float64
	// NoiseSigma, when positive, adds multiplicative log-normal noise
	// with the given sigma to Sample draws.
	NoiseSigma float64
}

// Predict implements Model.
func (f Func) Predict(p Params) float64 { return f.F(p) }

// Sample implements Model.
func (f Func) Sample(p Params, rng *stats.RNG) float64 {
	v := f.F(p)
	if f.NoiseSigma > 0 {
		v *= rng.LogNormal(0, f.NoiseSigma)
	}
	return v
}

// Name implements Model.
func (f Func) Name() string { return f.Label }

// LogSigma implements LogNormal. F must be a pure function of its
// parameters for the contract to hold.
func (f Func) LogSigma() float64 {
	if f.NoiseSigma > 0 {
		return f.NoiseSigma
	}
	return 0
}
