package kernels

import (
	"math"

	"bayessuite/internal/ad"
	"bayessuite/internal/mathx"
)

// NormalDeviations records sum_i log N(u_i | mu, sigma) where the
// deviations u themselves are tracked parameters — the non-centred
// hierarchical block (raw ~ N(0,1)) and vector priors. mu and sigma may
// be tracked or ad.Const; constant inputs contribute no edges. The
// accumulation order matches dist.NormalLPDFVarData exactly, so swapping
// one for the other does not perturb a seeded trajectory.
func NormalDeviations(t *ad.Tape, u []ad.Var, mu, sigma ad.Var) ad.Var {
	n := len(u)
	m := mu.Value()
	s := sigma.Value()
	inv := 1 / s
	dU := t.Scratch(n + 2)
	var val, dmu, dsigma float64
	for i, ui := range u {
		z := (ui.Value() - m) * inv
		val += -0.5 * z * z
		dU[i] = -z * inv
		dmu += z * inv
		dsigma += (z*z - 1) * inv
	}
	val += float64(n) * (-math.Log(s) - mathx.LnSqrt2Pi)
	dU[n] = dmu
	dU[n+1] = dsigma
	if err := ad.CheckFinite("normal_deviations", val, dU); err != nil {
		panic(err)
	}
	ins := t.ScratchVars(n + 2)
	copy(ins, u)
	ins[n] = mu
	ins[n+1] = sigma
	return t.Custom(val, ins, dU)
}
