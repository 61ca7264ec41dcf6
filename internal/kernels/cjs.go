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

// LogDensity records, as one tape node over the survival and recapture
// logits (each of length nOcc-1), the whole-dataset log-likelihood plus
// sum log s(eta) + log s(-eta) over every logit: the log-Jacobian of
// taking phi and p from their logits, which this kernel does in floats.
// Under uniform priors on phi and p that is the whole log density. One
// mathx.LogisticBlock call over both logit vectors gives phi and p as the
// sigmoids s and every log but chi's from the softpluses l: log phi =
// eta - l, log p = eta - l, log(1-p) = -l, and the Jacobian term
// eta - 2l with derivative 1 - 2s. Only the nOcc logs of chi stay scalar.
func (k *CJS) LogDensity(t *ad.Tape, logitPhi, logitP []ad.Var) ad.Var {
	nT := k.nOcc - 1
	if len(logitPhi) != nT || len(logitP) != nT {
		panic("kernels: CJS logit length != occasions-1")
	}
	m := 2 * nT
	buf := t.Scratch(4*m + 2*k.nOcc)
	eta, l, s := buf[:m], buf[m:2*m], buf[2*m:3*m]
	d := buf[3*m : 4*m] // dL/dphi then dL/dp, turned into logit partials in place
	chi, aChi := buf[4*m:4*m+k.nOcc], buf[4*m+k.nOcc:]
	for i := 0; i < nT; i++ {
		eta[i], eta[nT+i] = logitPhi[i].Value(), logitP[i].Value()
	}
	mathx.LogisticBlock(eta, l, s)
	phi, p := s[:nT], s[nT:]
	chi[nT] = 1
	for i := nT - 1; i >= 0; i-- {
		chi[i] = (1 - phi[i]) + float64(phi[i]*(1-p[i])*chi[i+1])
	}

	// A zero count skips its term: no animal contributes it, and 0·Inf
	// must not poison the sum when a probability saturates. A p that
	// rounds to 1 where animals were missed makes dL/dp infinite and the
	// node rejects, as the tape path's log(1-p) = log 0 does.
	val := 0.0
	for i, e := range eta {
		val += e - float64(2*l[i])
	}
	for i := 0; i < nT; i++ {
		var dPhi, dP float64
		if n := k.nPhi[i]; n != 0 {
			val += float64(n * (eta[i] - l[i]))
			dPhi = n / phi[i]
		}
		if n := k.nSeen[i]; n != 0 {
			val += float64(n * (eta[nT+i] - l[nT+i]))
			dP = n / p[i]
		}
		if n := k.nMiss[i]; n != 0 {
			val -= float64(n * l[nT+i])
			dP -= n / (1 - p[i])
		}
		d[i], d[nT+i] = dPhi, dP
	}
	for i := range chi {
		aChi[i] = 0
		if n := k.nChi[i]; n != 0 {
			val += float64(n * math.Log(chi[i]))
			aChi[i] = n / chi[i]
		}
	}
	// Reverse of the chi recursion: chi_i feeds only chi_{i-1}, so a
	// forward pass has every adjoint complete when it is consumed.
	for i := 0; i < nT; i++ {
		a := aChi[i]
		d[i] += float64(a * (float64((1-p[i])*chi[i+1]) - 1))
		d[nT+i] -= float64(a * phi[i] * chi[i+1])
		aChi[i+1] += float64(a * phi[i] * (1 - p[i]))
	}
	for i := 0; i < nT; i++ {
		d[i] = float64(d[i]*phi[i]*(1-phi[i])) + (1 - float64(2*phi[i]))
		d[nT+i] = float64(d[nT+i]*p[i]*(1-p[i])) + (1 - float64(2*p[i]))
	}

	ins := t.ScratchVars(m)
	copy(ins, logitPhi)
	copy(ins[nT:], logitP)
	return t.CustomChecked("cjs", val, ins, d)
}
