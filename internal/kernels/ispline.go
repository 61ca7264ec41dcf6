package kernels

import (
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
// patients' stage logits, the marker-major log-coefficients (markers x K)
// and the per-marker log-sigmas: every input is on the unconstrained
// scale, and the transforms happen here in floats. One mathx.ExpBlock
// call gives the coefficients and sigmas, one mathx.LogisticBlock call the
// stages; log sigma is the input itself. The partials are chain-ruled
// through c = exp(log c) and sigma = exp(log sigma); the stages' logit
// Jacobian is LogitJacobian's, the positive parameters' belongs to their
// priors (dist.Gamma.LogScaleLPDF, dist.HalfCauchy.LogScaleLPDF).
func (k *ISplineNormal) LogLik(t *ad.Tape, stageLogit, logCoefs, logSigmas []ad.Var) ad.Var {
	nM, nB := len(k.y), k.basis.K
	nP := 0
	if nM > 0 {
		nP = len(k.y[0])
	}
	nC := nM * nB
	if len(stageLogit) != nP || len(logCoefs) != nC || len(logSigmas) != nM {
		panic("kernels: I-spline parameter lengths do not match the data")
	}
	nIn := nP + nC + nM
	buf := t.Scratch(2*nIn + 2*nP + 2*nB)
	d := buf[:nIn]
	dStage, dCoef, dLogSigma := d[:nP], d[nP:nP+nC], d[nP+nC:]
	// ex holds the inputs in d's order; the exponentials overwrite the
	// coefficient and sigma parts in place, and the sigmas are then
	// inverted.
	ex := buf[nIn : 2*nIn]
	c, inv := ex[nP:nP+nC], ex[nP+nC:]
	x, sp := buf[2*nIn:2*nIn+nP], buf[2*nIn+nP:2*nIn+2*nP]
	bv, bd := buf[2*nIn+2*nP:2*nIn+2*nP+nB], buf[2*nIn+2*nP+nB:]
	for p, v := range stageLogit {
		ex[p] = v.Value()
	}
	for i, v := range logCoefs {
		c[i] = v.Value()
		dCoef[i] = 0
	}
	val := 0.0
	for j, v := range logSigmas {
		inv[j] = v.Value()
		dLogSigma[j] = 0
		val += float64(nP) * (-v.Value() - mathx.LnSqrt2Pi)
	}
	mathx.ExpBlock(ex[nP:], ex[nP:])
	mathx.LogisticBlock(ex[:nP], sp, x)
	for j, s := range inv {
		inv[j] = 1 / s
	}
	for p, xp := range x {
		for b := 0; b < nB; b++ {
			bv[b], bd[b] = k.basis.Eval(b, xp)
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
			dLogSigma[j] += z*z - 1
		}
		dStage[p] = dx * xp * (1 - xp)
	}
	for i, cv := range c {
		dCoef[i] *= cv
	}

	ins := t.ScratchVars(nIn)
	copy(ins, stageLogit)
	copy(ins[nP:], logCoefs)
	copy(ins[nP+nC:], logSigmas)
	return t.CustomChecked("ispline_normal", val, ins, d)
}
