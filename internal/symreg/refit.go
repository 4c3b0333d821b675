package symreg

import (
	"fmt"
	"math"
)

// Refit evolves an updated model for a grown training set, warm-started
// from a previously fitted expression. The surrogate-guided DSE search
// (internal/dse) refits once per round as fully simulated points
// accumulate; running Fit from scratch every round would spend most of
// the GP budget rediscovering the shape the previous round already
// found. The previous model's input/output scales are reused verbatim —
// they were estimated from a subset of the current rows and keep
// prev.Expr meaningful on the rescaled problem — so only the expression
// evolves. The first restart seeds its population with the previous
// winner and a band of its mutants; remaining restarts stay fully
// independent, so a stale shape cannot trap the search. A nil prev (or
// one whose scales don't match the current arity) falls back to a
// fresh Fit.
func Refit(prev *Fitted, train, test Dataset, opt Options) *Fitted {
	if prev == nil || prev.Expr == nil || len(prev.XScale) != len(train.VarNames) {
		label := ""
		if prev != nil {
			label = prev.Label
		}
		return Fit(label, train, test, opt)
	}
	train.Validate()
	return fit(prev.Label, train, test, opt, prev.XScale, defaultIfZero(prev.YScale, 1), prev.Expr)
}

// PredictBatch evaluates the model at every row of xs — raw (unscaled)
// values in VarNames order — writing predictions into dst, which is
// grown only when its capacity falls short. One scratch variable vector
// is reused across the whole batch, so ranking thousands of candidate
// design points per search round allocates nothing per point (unlike
// Predict, which needs a perfmodel.Params map per call).
func (f *Fitted) PredictBatch(xs [][]float64, dst []float64) []float64 {
	if cap(dst) < len(xs) {
		dst = make([]float64, len(xs))
	}
	dst = dst[:len(xs)]
	vars := make([]float64, len(f.VarNames))
	for i, row := range xs {
		if len(row) != len(f.VarNames) {
			panic(fmt.Sprintf("symreg: batch row %d has %d values, want %d", i, len(row), len(f.VarNames)))
		}
		for j := range vars {
			vars[j] = row[j]
			if f.XScale != nil {
				vars[j] /= f.XScale[j]
			}
		}
		v := f.Expr.Eval(vars)
		//lint:ignore floateq exactly zero YScale marks an unscaled legacy model
		if f.YScale != 0 {
			v *= f.YScale
		}
		if math.IsNaN(v) || math.IsInf(v, 0) || v < 0 {
			v = 0
		}
		dst[i] = v
	}
	return dst
}
