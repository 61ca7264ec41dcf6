package kernels

import (
	"bayessuite/internal/ad"
	"bayessuite/internal/mathx"
)

// Occupancy is the collapsed site-occupancy mixture with species-level
// logit-normal occupancy and detection (Dorazio et al.). Species i is
// present at a site with probability psi_i and, where present, detected on
// each of K visits with probability p_i. A site's detection count y enters
// the marginal likelihood only through its value:
//
//	y > 0: log psi + lchoose(K, y) + y log p + (K-y) log(1-p)
//	y = 0: logsumexp(log psi + K log(1-p), log(1-psi))
//
// so per species the sites reduce to five numbers — sites with y = 0,
// sites with y > 0, the detections and the misses summed over the latter,
// and their summed lchoose — and an evaluation is O(species) with no
// lgamma in it.
type Occupancy struct {
	visits float64
	// Per species: sites never detected at, sites detected at, and over
	// the latter the summed detections y and misses K-y.
	nZero, nPos, dets, misses []float64
	lchoose                   float64 // sum over detected-at sites of lchoose(K, y)
}

// NewOccupancy reduces detection counts y[species][site] out of visits
// visits per site.
func NewOccupancy(y [][]int, visits int) *Occupancy {
	n := len(y)
	k := &Occupancy{
		visits: float64(visits),
		nZero:  make([]float64, n),
		nPos:   make([]float64, n),
		dets:   make([]float64, n),
		misses: make([]float64, n),
	}
	lc := make([]float64, visits+1)
	for v := range lc {
		lc[v] = mathx.LChoose(k.visits, float64(v))
	}
	for i, row := range y {
		for _, v := range row {
			switch {
			case v < 0 || v > visits:
				panic("kernels: occupancy detection count outside [0, visits]")
			case v == 0:
				k.nZero[i]++
			default:
				k.nPos[i]++
				k.dets[i] += float64(v)
				k.misses[i] += float64(visits - v)
				k.lchoose += lc[v]
			}
		}
	}
	return k
}

// LogLik records the whole-dataset log-likelihood as one tape node over
// the community means and scales and the species' raw deviations, with
// logit psi_i = muPsi + sigPsi·uRaw_i and logit p_i = muP + sigP·vRaw_i.
// Its transcendentals are two mathx.LogisticBlock calls: one over the 2n
// logits, whose softpluses l give log(1-psi) = -l and log psi = -(l -
// eta) (the same for p) and whose sigmoids give psi and p, and one over
// the n mixture arguments of the never-detected sites.
func (k *Occupancy) LogLik(t *ad.Tape, muPsi, sigPsi, muP, sigP ad.Var, uRaw, vRaw []ad.Var) ad.Var {
	n := len(k.nZero)
	if len(uRaw) != n || len(vRaw) != n {
		panic("kernels: occupancy deviation length != species")
	}
	buf := t.Scratch(4 + 12*n)
	d := buf[:4+2*n]
	eta, l, s := buf[4+2*n:4+4*n], buf[4+4*n:4+6*n], buf[4+6*n:4+8*n]
	occ, a, la, w := buf[4+8*n:4+9*n], buf[4+9*n:4+10*n], buf[4+10*n:4+11*n], buf[4+11*n:]
	mPsi, sPsi, mP, sP := muPsi.Value(), sigPsi.Value(), muP.Value(), sigP.Value()
	for i := 0; i < n; i++ {
		eta[i] = mPsi + float64(sPsi*uRaw[i].Value())
		eta[n+i] = mP + float64(sP*vRaw[i].Value())
	}
	mathx.LogisticBlock(eta, l, s)
	// A y = 0 site adds occ + softplus(log(1-psi) - occ), occ = log psi +
	// K log(1-p) the occupied branch: the second call takes the softplus.
	for i := 0; i < n; i++ {
		occ[i] = -(l[i] - eta[i]) - float64(k.visits*l[n+i])
		a[i] = -l[i] - occ[i]
	}
	mathx.LogisticBlock(a, la, w)

	var dMuPsi, dSigPsi, dMuP, dSigP float64
	val := k.lchoose
	for i := 0; i < n; i++ {
		spNegPsi, sgPsi := l[i]-eta[i], s[i]
		spP, spNegP, sgP := l[n+i], l[n+i]-eta[n+i], s[n+i]

		val += float64(-k.nPos[i]*spNegPsi) - float64(k.dets[i]*spNegP) - float64(k.misses[i]*spP)
		gPsi := float64(k.nPos[i] * (1 - sgPsi))
		gP := float64(k.dets[i]*(1-sgP)) - float64(k.misses[i]*sgP)
		if n0 := k.nZero[i]; n0 != 0 {
			wi := w[i]
			val += float64(n0 * (occ[i] + la[i]))
			gPsi += float64(n0 * (float64((1-wi)*(1-sgPsi)) - float64(wi*sgPsi)))
			gP -= float64(n0 * (1 - wi) * k.visits * sgP)
		}
		u, v := uRaw[i].Value(), vRaw[i].Value()
		dMuPsi += gPsi
		dSigPsi += float64(gPsi * u)
		d[4+i] = gPsi * sPsi
		dMuP += gP
		dSigP += float64(gP * v)
		d[4+n+i] = gP * sP
	}
	d[0], d[1], d[2], d[3] = dMuPsi, dSigPsi, dMuP, dSigP

	ins := t.ScratchVars(4 + 2*n)
	ins[0], ins[1], ins[2], ins[3] = muPsi, sigPsi, muP, sigP
	copy(ins[4:], uRaw)
	copy(ins[4+n:], vRaw)
	return t.CustomChecked("occupancy", val, ins, d)
}
