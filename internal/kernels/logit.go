package kernels

import (
	"math"

	"bayessuite/internal/ad"
)

// softplus returns log(1+exp(x)), log(1+exp(-x)) and the logistic sigmoid
// of x from one exp and one log1p, with z = exp(-|x|) feeding all three.
// It agrees with mathx.Log1pExp and mathx.InvLogit to rounding on every
// branch of theirs: above their 33.3 cut-over log1p(z) is below half an
// ulp of x, below -37 log1p(z) is z to rounding.
func softplus(x float64) (sp, spNeg, sig float64) {
	if x >= 0 {
		z := math.Exp(-x)
		l := math.Log1p(z)
		return x + l, l, 1 / (1 + z)
	}
	z := math.Exp(x)
	l := math.Log1p(z)
	return l, l - x, z / (1 + z)
}

// LogitJacobian records sum_i log s(q_i) + log s(-q_i), s the logistic
// sigmoid: the log-Jacobian of mapping every q_i onto (0, 1), which
// model.Builder.Prob adds one parameter at a time. Kernels that take
// logits directly (CJS, ISplineNormal) do the transform in floats, and
// this one node is all of it that stays on the tape.
func LogitJacobian(t *ad.Tape, q []ad.Var) ad.Var {
	d := t.Scratch(len(q))
	val := 0.0
	for i, qi := range q {
		x := qi.Value()
		z := math.Exp(-math.Abs(x))
		val -= math.Abs(x) + 2*math.Log1p(z)
		// d/dx = 1 - 2 s(x) = -tanh(x/2), written in z = exp(-|x|).
		d[i] = math.Copysign((1-z)/(1+z), -x)
	}
	return t.CustomChecked("logit_jacobian", val, q, d)
}
