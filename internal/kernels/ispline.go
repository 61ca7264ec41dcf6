package kernels

import (
	"math"

	"bayessuite/internal/ad"
	"bayessuite/internal/mathx"
	"bayessuite/internal/splines"
)

// ISplineNormal is the fused likelihood of monotone I-spline curves
// observed with normal noise (Pourzanjani et al.'s disease-progression
// model): patient p sits at stage x_p in (0, 1) and marker j reads
//
//	y[j][p] ~ Normal(sum_k c[j][k] I_k(x_p), sigma_j)
//
// The basis is evaluated at a parameter, so no count can be taken ahead of
// time; the kernel only fuses. It evaluates the K basis values and their
// M-spline derivatives once per patient — they do not depend on the
// marker — and scatters partials to the stage, the marker's coefficients
// and its sigma.
type ISplineNormal struct {
	basis *splines.ISpline
	y     [][]float64 // one column of patients per marker
}

// NewISplineNormal builds the kernel over y[marker][patient].
func NewISplineNormal(basis *splines.ISpline, y [][]float64) *ISplineNormal {
	for _, col := range y {
		if len(col) != len(y[0]) {
			panic("kernels: I-spline marker columns differ in length")
		}
	}
	return &ISplineNormal{basis: basis, y: y}
}

// LogLik records every marker's log-likelihood as one tape node over the
// patients' stage logits, the marker-major coefficients (markers x K) and
// the per-marker sigmas. The logit transform of the stages happens here
// in floats; its Jacobian is LogitJacobian's.
func (k *ISplineNormal) LogLik(t *ad.Tape, stageLogit, coefs, sigmas []ad.Var) ad.Var {
	nM, nB := len(k.y), k.basis.K
	nP := 0
	if nM > 0 {
		nP = len(k.y[0])
	}
	if len(stageLogit) != nP || len(coefs) != nM*nB || len(sigmas) != nM {
		panic("kernels: I-spline parameter lengths do not match the data")
	}
	nIn := nP + nM*nB + nM
	buf := t.Scratch(nIn + nM*nB + nM + 2*nB)
	d := buf[:nIn]
	dStage, dCoef, dSigma := d[:nP], d[nP:nP+nM*nB], d[nP+nM*nB:]
	c := buf[nIn : nIn+nM*nB]
	inv := buf[nIn+nM*nB : nIn+nM*nB+nM]
	bv, bd := buf[nIn+nM*nB+nM:nIn+nM*nB+nM+nB], buf[nIn+nM*nB+nM+nB:]
	for i, cv := range coefs {
		c[i] = cv.Value()
		dCoef[i] = 0
	}
	val := 0.0
	for j, s := range sigmas {
		inv[j] = 1 / s.Value()
		dSigma[j] = 0
		val += float64(nP) * (-math.Log(s.Value()) - mathx.LnSqrt2Pi)
	}
	for p := 0; p < nP; p++ {
		x := mathx.InvLogit(stageLogit[p].Value())
		for b := 0; b < nB; b++ {
			bv[b], bd[b] = k.basis.Eval(b, x)
		}
		dx := 0.0
		for j := 0; j < nM; j++ {
			cj, dcj := c[j*nB:(j+1)*nB], dCoef[j*nB:(j+1)*nB]
			var mu, slope float64
			for b, cb := range cj {
				mu += cb * bv[b]
				slope += cb * bd[b]
			}
			z := (k.y[j][p] - mu) * inv[j]
			val += -0.5 * z * z
			dMu := z * inv[j]
			dx += dMu * slope
			for b := range dcj {
				dcj[b] += dMu * bv[b]
			}
			dSigma[j] += (z*z - 1) * inv[j]
		}
		dStage[p] = dx * x * (1 - x)
	}

	ins := t.ScratchVars(nIn)
	copy(ins, stageLogit)
	copy(ins[nP:], coefs)
	copy(ins[nP+nM*nB:], sigmas)
	return record(t, "ispline_normal", val, ins, d)
}
