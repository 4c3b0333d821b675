package stats

import (
	"math"
	"testing"
)

// maxNormalLoop is MaxNormal's reference: n calls to Normal(0, stddev),
// keeping the largest.
func maxNormalLoop(r *RNG, n int, stddev float64) float64 {
	worst := math.Inf(-1)
	for i := 0; i < n; i++ {
		if v := r.Normal(0, stddev); v > worst {
			worst = v
		}
	}
	return worst
}

// checkMaxNormal runs MaxNormal and the per-call loop from the same
// seed, optionally after a pre-draw that leaves a variate cached, and
// fails unless the results, the generator states and the next four
// draws agree bit for bit.
func checkMaxNormal(t *testing.T, seed uint64, n int, stddev float64, preDraw bool) {
	t.Helper()
	got, want := NewRNG(seed), NewRNG(seed)
	if preDraw {
		got.Normal(0, 1)
		want.Normal(0, 1)
	}
	g, w := got.MaxNormal(n, stddev), maxNormalLoop(want, n, stddev)
	if math.Float64bits(g) != math.Float64bits(w) {
		t.Fatalf("seed %#x n %d stddev %g (%#x) pre-draw %v: MaxNormal = %v (%#x), loop = %v (%#x)",
			seed, n, stddev, math.Float64bits(stddev), preDraw, g, math.Float64bits(g), w, math.Float64bits(w))
	}
	if got.s != want.s || got.hasGauss != want.hasGauss || math.Float64bits(got.gauss) != math.Float64bits(want.gauss) {
		t.Fatalf("seed %#x n %d stddev %g pre-draw %v: state %+v, loop leaves %+v", seed, n, stddev, preDraw, *got, *want)
	}
	for i := 0; i < 4; i++ {
		if a, b := got.Normal(0, 1), want.Normal(0, 1); math.Float64bits(a) != math.Float64bits(b) {
			t.Fatalf("seed %#x n %d stddev %g pre-draw %v: draw %d after MaxNormal = %v, after loop = %v", seed, n, stddev, preDraw, i, a, b)
		}
	}
}

// TestMaxNormalMatchesLoop covers the screened path across rank
// counts and spreads, both parities with and without a cached variate,
// and the stddevs that take the per-call fallback.
func TestMaxNormalMatchesLoop(t *testing.T) {
	stddevs := []float64{
		1e-100, 1e-9, 0.01, 0.05, 0.12, 1, 3, 1e50, 1e100,
		0, -0.1, 5e-324, 1e-101, 1e101, math.MaxFloat64, math.NaN(), math.Inf(1), math.Inf(-1),
	}
	ns := []int{-1, 0, 1, 2, 3, 7, 8, 64, 215, 216, 1000, 65537}
	for _, stddev := range stddevs {
		for _, n := range ns {
			seeds := uint64(12)
			if n > 1000 {
				seeds = 2
			}
			for _, pre := range []bool{false, true} {
				for seed := uint64(1); seed <= seeds; seed++ {
					checkMaxNormal(t, seed*0x9e3779b97f4a7c15+uint64(n), n, stddev, pre)
				}
			}
		}
	}
}

// TestScreenNeverSkipsAWinner checks MaxNormal's skip test where it is
// tightest: for a pair whose larger value is top, a running maximum
// anywhere below top must never skip the pair, including one ulp below
// it. Pairs come from the generator and from constructions with s a
// hair under 1 (where the log bound is tight and 1-s² cancels) and s
// tiny (where the values are largest).
func TestScreenNeverSkipsAWinner(t *testing.T) {
	type pair struct{ u, v float64 }
	var pairs []pair
	r := NewRNG(99)
	for len(pairs) < 20000 {
		u, v := 2*r.Float64()-1, 2*r.Float64()-1
		if s := u*u + v*v; s > 0 && s < 1 {
			pairs = append(pairs, pair{u, v})
		}
	}
	for i := 0; i < 2000; i++ {
		u := r.Float64()
		for _, eps := range []float64{1e-15, 1e-12, 1e-9, 1e-6} {
			if v := math.Sqrt(1 - u*u - eps); !math.IsNaN(v) {
				pairs = append(pairs, pair{u, v}, pair{v, -u})
			}
		}
		pairs = append(pairs, pair{u * 0x1p-52, (r.Float64() - 0.5) * 0x1p-51})
	}
	skips := 0
	for _, stddev := range []float64{1e-100, 1e-3, 0.12, 1, 1e100} {
		for _, p := range pairs {
			s := p.u*p.u + p.v*p.v
			if !(s > 0 && s < 1) {
				continue
			}
			f := math.Sqrt(-2 * math.Log(s) / s)
			top := max(stddev*p.u*f, stddev*(p.v*f))
			if top <= 0 {
				continue
			}
			for _, below := range []float64{math.Nextafter(top, 0), top * (1 - 1e-15), top * (1 - 1e-10), top * (1 - 1e-6), top * 0.9} {
				if cannotWin(p.u, p.v, s, screen(below, stddev)) {
					t.Fatalf("stddev %g pair (%v, %v) s %v: skipped with top %v above the maximum %v", stddev, p.u, p.v, s, top, below)
				}
			}
			if cannotWin(p.u, p.v, s, screen(2*top, stddev)) {
				skips++
			}
		}
	}
	if skips == 0 {
		t.Fatal("the screen never skipped a pair below half the running maximum")
	}
}

// FuzzMaxNormal holds MaxNormal to the per-call loop over arbitrary
// seeds, counts up to 70,000 (past groundtruth.MaxRankDraws), stddev
// bit patterns (NaN, infinities, subnormals and the fallback bounds
// among them) and a pre-draw that leaves a variate cached.
func FuzzMaxNormal(f *testing.F) {
	f.Add(uint64(1), uint32(216), math.Float64bits(0.12), false)
	f.Add(uint64(7), uint32(65536), math.Float64bits(0.05), true)
	f.Add(uint64(3), uint32(1), math.Float64bits(1e-100), true)
	f.Add(uint64(9), uint32(63), math.Float64bits(1e100), false)
	f.Add(uint64(2), uint32(8), math.Float64bits(math.NaN()), true)
	f.Fuzz(func(t *testing.T, seed uint64, n uint32, stddevBits uint64, preDraw bool) {
		checkMaxNormal(t, seed, 1+int(n%70000), math.Float64frombits(stddevBits), preDraw)
	})
}
