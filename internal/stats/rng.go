// Package stats provides the deterministic random-number generation,
// probability distributions, and summary statistics used throughout the
// FT-BESST simulator.
//
// All randomness in the simulator flows through stats.RNG so that every
// experiment is reproducible from a single 64-bit seed. The generator is
// xoshiro256**, seeded through splitmix64 as recommended by its authors;
// both are implemented here so the repository has no dependency on
// math/rand's global state or version-dependent stream behaviour.
package stats

import (
	"math"
	"math/bits"
)

// RNG is a deterministic pseudo-random number generator (xoshiro256**).
// The zero value is not valid; construct with NewRNG.
type RNG struct {
	s [4]uint64
	// cached second normal variate from the Box-Muller transform
	hasGauss bool
	gauss    float64
}

// splitmix64 advances the seed and returns the next splitmix64 output.
// It is used only to expand a 64-bit seed into xoshiro's 256-bit state.
func splitmix64(x *uint64) uint64 {
	*x += 0x9e3779b97f4a7c15
	z := *x
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// NewRNG returns a generator seeded deterministically from seed.
// Distinct seeds yield statistically independent streams.
func NewRNG(seed uint64) *RNG {
	r := &RNG{}
	r.Reseed(seed)
	return r
}

// Reseed reinitializes r in place to exactly the state NewRNG(seed)
// produces, including discarding any cached Box-Muller variate. It
// exists so pooled simulators can reuse generator allocations across
// trials while staying byte-identical to freshly constructed ones.
func (r *RNG) Reseed(seed uint64) {
	sm := seed
	for i := range r.s {
		r.s[i] = splitmix64(&sm)
	}
	// Guard against the (astronomically unlikely) all-zero state, which
	// is the one fixed point of xoshiro256**.
	if r.s[0]|r.s[1]|r.s[2]|r.s[3] == 0 {
		r.s[0] = 0x9e3779b97f4a7c15
	}
	r.hasGauss = false
	r.gauss = 0
}

// Split returns a new independent generator derived from r's stream.
// It is the supported way to hand per-component or per-replication
// streams out of a master seed without correlated sequences.
func (r *RNG) Split() *RNG {
	dst := &RNG{}
	r.SplitTo(dst)
	return dst
}

// SplitTo reseeds dst with the same derivation Split uses, advancing
// r's stream identically, but without allocating: dst ends in exactly
// the state Split's fresh generator would have.
//
//lint:hotpath
func (r *RNG) SplitTo(dst *RNG) {
	dst.Reseed(r.Uint64() ^ 0xa3cc7d5a7f2e19bf)
}

// xoshiro advances the xoshiro256** state (s0, s1, s2, s3) by one
// step and returns the step's output and the new state, each word
// written out in closed form. Taking the state by value lets a caller
// hold it in registers across draws.
func xoshiro(s0, s1, s2, s3 uint64) (out, n0, n1, n2, n3 uint64) {
	return bits.RotateLeft64(s1*5, 7) * 9, s0 ^ s1 ^ s3, s0 ^ s1 ^ s2, s0 ^ s2 ^ s1<<17, bits.RotateLeft64(s1^s3, 45)
}

// unit maps 64 random bits to a uniform float64 in [0, 1). The 53-bit
// integer converts exactly through int64, which compiles to one
// instruction where a uint64 conversion needs a sign branch.
func unit(x uint64) float64 {
	return float64(int64(x>>11)) / (1 << 53)
}

// Uint64 returns the next 64 uniformly distributed bits.
//
// It fits the inlining budget but is kept out of line. Inlined, it
// pushes Float64, which Normal calls per draw, over the budget; every
// build that inlined it measured 1-4% more CPU per campaign unit on
// perfbench's DES Monte Carlo workload (mc-des-dist, 2-vCPU host) than
// this one, which matched the out-of-line original.
//
//lint:hotpath
//go:noinline
func (r *RNG) Uint64() uint64 {
	var x uint64
	x, r.s[0], r.s[1], r.s[2], r.s[3] = xoshiro(r.s[0], r.s[1], r.s[2], r.s[3])
	return x
}

// Float64 returns a uniform float64 in [0, 1).
//
//lint:hotpath
func (r *RNG) Float64() float64 {
	return unit(r.Uint64())
}

// Intn returns a uniform int in [0, n). It panics if n <= 0.
//
//lint:hotpath
func (r *RNG) Intn(n int) int {
	if n <= 0 {
		panic("stats: Intn with non-positive n")
	}
	// Lemire's nearly-divisionless bounded generation would be overkill;
	// modulo bias is negligible for the n used in this simulator, but we
	// still reject to keep draws exactly uniform.
	max := uint64(n)
	if max&(max-1) == 0 {
		// A power of two: the general limit below is exactly -max,
		// and v % max is v & (max-1), so this path draws the same
		// values without a division.
		for {
			if v := r.Uint64(); v < -max {
				return int(v & (max - 1))
			}
		}
	}
	limit := (^uint64(0) / max) * max
	for {
		v := r.Uint64()
		if v < limit {
			return int(v % max)
		}
	}
}

// Perm returns a uniformly random permutation of [0, n).
func (r *RNG) Perm(n int) []int {
	p := make([]int, n)
	for i := range p {
		p[i] = i
	}
	for i := n - 1; i > 0; i-- {
		j := r.Intn(i + 1)
		p[i], p[j] = p[j], p[i]
	}
	return p
}

// Normal returns a normally distributed value with the given mean and
// standard deviation, via the Box-Muller transform.
func (r *RNG) Normal(mean, stddev float64) float64 {
	if r.hasGauss {
		r.hasGauss = false
		return mean + stddev*r.gauss
	}
	var u, v, s float64
	for {
		u = 2*r.Float64() - 1
		v = 2*r.Float64() - 1
		s = u*u + v*v
		if s > 0 && s < 1 {
			break
		}
	}
	f := math.Sqrt(-2 * math.Log(s) / s)
	r.gauss = v * f
	r.hasGauss = true
	return mean + stddev*u*f
}

// MaxNormal returns the largest of n draws of r.Normal(0, stddev), bit
// for bit, and leaves r exactly as those n calls would, cached variate
// included. A NaN draw never wins; n <= 0 returns -Inf and draws
// nothing.
//
// It draws the same uniforms with the xoshiro state held in locals,
// and it skips the Log and Sqrt of a pair that cannot beat the running
// maximum w > 0. A pair (u, v) with s = u²+v² yields stddev·{u,v}·f
// with f² = -2·ln(s)/s, and -ln s <= (1-s²)/(2s) on (0, 1], so
// f <= √(1-s²)/s and neither value exceeds stddev·max(u,v,0)·√(1-s²)/s.
// The pair is skipped when that bound squared is below
// (w/stddev)²·(1-1e-9): the margin is orders of magnitude above the
// rounding of either side, so a skipped pair's values are never above
// w. 1-s² is formed as (1-s)(1+s), exact to one rounding even as s
// nears 1, where the bound is tightest. The last pair is always
// evaluated, so the cached second variate (and the stale one Normal
// leaves after consuming it) is the per-call loop's. A stddev outside
// [1e-100, 1e100], NaN or infinite takes the per-call loop, which keeps
// every product in the bound far from overflow and underflow.
//
//lint:hotpath
func (r *RNG) MaxNormal(n int, stddev float64) float64 {
	worst := math.Inf(-1)
	if !(stddev >= 1e-100 && stddev <= 1e100) {
		for ; n > 0; n-- {
			if v := r.Normal(0, stddev); v > worst {
				worst = v
			}
		}
		return worst
	}
	if n > 0 && r.hasGauss {
		worst = r.Normal(0, stddev)
		n--
	}
	thr := screen(worst, stddev)
	s0, s1, s2, s3 := r.s[0], r.s[1], r.s[2], r.s[3]
	for n > 0 {
		var u, v, s float64
		for {
			var x uint64
			x, s0, s1, s2, s3 = xoshiro(s0, s1, s2, s3)
			u = 2*unit(x) - 1
			x, s0, s1, s2, s3 = xoshiro(s0, s1, s2, s3)
			v = 2*unit(x) - 1
			s = u*u + v*v
			if s > 0 && s < 1 {
				break
			}
		}
		n -= 2
		if n > 0 && cannotWin(u, v, s, thr) {
			continue
		}
		f := math.Sqrt(-2 * math.Log(s) / s)
		g := v * f
		if a := stddev * u * f; a > worst {
			worst = a
		}
		if n < 0 {
			// Odd count: the pair's second variate stays cached.
			r.hasGauss, r.gauss = true, g
			break
		}
		if b := stddev * g; b > worst {
			worst = b
		}
		r.gauss = g
		thr = screen(worst, stddev)
	}
	r.s = [4]uint64{s0, s1, s2, s3}
	return worst
}

// cannotWin reports whether neither value of the accepted polar pair
// (u, v) with s = u²+v² can beat the running maximum whose screen
// threshold is thr (see MaxNormal).
func cannotWin(u, v, s, thr float64) bool {
	m := max(u, v, 0)
	return m*m*((1-s)*(1+s)) < thr*s*s
}

// screen returns MaxNormal's skip threshold for a running maximum
// worst: (worst/stddev)²·(1-1e-9) when worst > 0, else 0, which skips
// nothing.
func screen(worst, stddev float64) float64 {
	if worst <= 0 {
		return 0
	}
	w := worst / stddev
	return w * w * (1 - 1e-9)
}

// LogNormal returns a log-normally distributed value where the underlying
// normal has mean mu and standard deviation sigma (both in log space).
// Machine timing noise in the ground-truth emulator is modelled as
// multiplicative log-normal, matching the right-skewed distributions
// observed in the calibration samples BE-SST consumes.
func (r *RNG) LogNormal(mu, sigma float64) float64 {
	return math.Exp(r.Normal(mu, sigma))
}

// Exponential returns an exponentially distributed value with the given
// rate lambda (mean 1/lambda). Used for fault inter-arrival times.
func (r *RNG) Exponential(lambda float64) float64 {
	if lambda <= 0 {
		panic("stats: Exponential with non-positive rate")
	}
	u := r.Float64()
	// 1-u is in (0,1], avoiding Log(0).
	return -math.Log(1-u) / lambda
}

// Weibull returns a Weibull-distributed value with shape k and scale
// lambda. Shape k < 1 models infant-mortality failure behaviour typical
// of HPC component field data; k = 1 degenerates to the exponential.
func (r *RNG) Weibull(shape, scale float64) float64 {
	if shape <= 0 || scale <= 0 {
		panic("stats: Weibull with non-positive parameter")
	}
	u := r.Float64()
	return scale * math.Pow(-math.Log(1-u), 1/shape)
}
