package kernels

import (
	"bayessuite/internal/ad"
	"bayessuite/internal/mathx"
)

// LogitJacobian records sum_i log s(q_i) + log s(-q_i), s the logistic
// sigmoid: the log-Jacobian of mapping every q_i onto (0, 1), which
// model.Builder.Prob adds one parameter at a time. ISplineNormal takes
// logits directly and does the transform in floats, and this one node is
// all of it that stays on the tape; CJS.LogDensity carries its own.
//
// With l = log(1+exp(x)) and s = s(x) from one mathx.LogisticBlock call,
// the summand is x - 2l and its derivative 1 - 2s: no log or exp per
// logit.
func LogitJacobian(t *ad.Tape, q []ad.Var) ad.Var {
	n := len(q)
	buf := t.Scratch(3 * n)
	x, l, d := buf[:n], buf[n:2*n], buf[2*n:]
	for i, qi := range q {
		x[i] = qi.Value()
	}
	mathx.LogisticBlock(x, l, d)
	val := 0.0
	for i, xi := range x {
		val += xi - float64(2*l[i])
		d[i] = 1 - float64(2*d[i])
	}
	return t.CustomChecked("logit_jacobian", val, q, d)
}
