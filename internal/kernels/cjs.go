package kernels

import (
	"math"

	"bayessuite/internal/ad"
	"bayessuite/internal/mathx"
)

// CJS is the collapsed Cormack-Jolly-Seber capture-recapture likelihood.
// An animal first caught at occasion f and last seen at l contributes
//
//	sum_{t=f+1..l} [log phi_{t-1} + (seen at t ? log p_{t-1} : log(1-p_{t-1}))] + log chi_l
//
// where chi_t = Pr(never seen after t | alive at t) follows the backward
// recursion chi_{T-1} = 1, chi_t = (1-phi_t) + phi_t (1-p_t) chi_{t+1}.
// Every term is one of 4·T logs of the parameters, so the whole dataset is
// a count-weighted sum of them: the counts are taken once at construction
// and an evaluation is O(T) whatever the number of animals.
type CJS struct {
	nOcc int
	// Animals known alive over interval t → t+1 (nPhi), of those seen or
	// missed at occasion t+1, and animals last seen at occasion t (nChi).
	nPhi, nSeen, nMiss, nChi []float64
}

// NewCJS counts the capture histories (one row of nOcc 0/1 entries per
// animal, with its first and last capture occasions).
func NewCJS(history [][]uint8, first, last []int, nOcc int) *CJS {
	if len(first) != len(history) || len(last) != len(history) {
		panic("kernels: CJS first/last length != animals")
	}
	k := &CJS{
		nOcc:  nOcc,
		nPhi:  make([]float64, nOcc-1),
		nSeen: make([]float64, nOcc-1),
		nMiss: make([]float64, nOcc-1),
		nChi:  make([]float64, nOcc),
	}
	for i, h := range history {
		f, l := first[i], last[i]
		if len(h) != nOcc || f < 0 || l < f || l >= nOcc {
			panic("kernels: CJS capture history malformed")
		}
		for t := f + 1; t <= l; t++ {
			k.nPhi[t-1]++
			if h[t] == 1 {
				k.nSeen[t-1]++
			} else {
				k.nMiss[t-1]++
			}
		}
		k.nChi[l]++
	}
	return k
}

// LogLik records the whole-dataset log-likelihood as one tape node over
// the survival and recapture logits (each of length nOcc-1). The logit
// transform happens here in floats; its Jacobian is LogitJacobian's.
func (k *CJS) LogLik(t *ad.Tape, logitPhi, logitP []ad.Var) ad.Var {
	nT := k.nOcc - 1
	if len(logitPhi) != nT || len(logitP) != nT {
		panic("kernels: CJS logit length != occasions-1")
	}
	buf := t.Scratch(4*nT + 2*k.nOcc)
	phi, p := buf[:nT], buf[nT:2*nT]
	d := buf[2*nT : 4*nT] // dL/dphi then dL/dp, turned into logit partials in place
	chi, aChi := buf[4*nT:4*nT+k.nOcc], buf[4*nT+k.nOcc:]
	for i := 0; i < nT; i++ {
		phi[i] = mathx.InvLogit(logitPhi[i].Value())
		p[i] = mathx.InvLogit(logitP[i].Value())
	}
	chi[nT] = 1
	for i := nT - 1; i >= 0; i-- {
		chi[i] = (1 - phi[i]) + phi[i]*(1-p[i])*chi[i+1]
	}

	// A zero count skips its term: no animal contributes it, and 0·log 0
	// must not poison the sum when a probability saturates.
	val := 0.0
	for i := 0; i < nT; i++ {
		var dPhi, dP float64
		if n := k.nPhi[i]; n != 0 {
			val += n * math.Log(phi[i])
			dPhi = n / phi[i]
		}
		if n := k.nSeen[i]; n != 0 {
			val += n * math.Log(p[i])
			dP = n / p[i]
		}
		if n := k.nMiss[i]; n != 0 {
			val += n * math.Log(1-p[i])
			dP -= n / (1 - p[i])
		}
		d[i], d[nT+i] = dPhi, dP
	}
	for i := range chi {
		aChi[i] = 0
		if n := k.nChi[i]; n != 0 {
			val += n * math.Log(chi[i])
			aChi[i] = n / chi[i]
		}
	}
	// Reverse of the chi recursion: chi_i feeds only chi_{i-1}, so a
	// forward pass has every adjoint complete when it is consumed.
	for i := 0; i < nT; i++ {
		a := aChi[i]
		d[i] += a * ((1-p[i])*chi[i+1] - 1)
		d[nT+i] -= a * phi[i] * chi[i+1]
		aChi[i+1] += a * phi[i] * (1 - p[i])
	}
	for i := 0; i < nT; i++ {
		d[i] *= phi[i] * (1 - phi[i])
		d[nT+i] *= p[i] * (1 - p[i])
	}

	ins := t.ScratchVars(2 * nT)
	copy(ins, logitPhi)
	copy(ins[nT:], logitP)
	return t.CustomChecked("cjs", val, ins, d)
}
