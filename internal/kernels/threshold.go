package kernels

import (
	"bayessuite/internal/ad"
	"bayessuite/internal/mathx"
)

// ThresholdTest is the fused likelihood of Simoiu et al.'s threshold test
// over department x race cells of (stops, searches, hits) counts. Each
// cell has a latent search threshold
//
//	thr_c = tRace[race_c] + deptScale·deptRaw[dept_c] + sigma·cellRaw[c]
//
// and two binomial-logit outcomes that share it with opposite signs:
// searches ~ Binomial(stops, invlogit(searchBase - thr_c)) and
// hits ~ Binomial(searches, invlogit(hRace[race_c] + thr_c)). One gather
// pass over the cells evaluates both and scatters the partials back to the
// race, department, cell, scale and base parameters; the lchoose
// normalising constants are summed once at construction.
type ThresholdTest struct {
	nRace, nDept            int
	race, dept              []int
	stops, searches, hits   []float64
	deptScale, lchooseConst float64
}

// NewThresholdTest builds the kernel over per-cell counts and their
// department and race indices.
func NewThresholdTest(stops, searches, hits, dept, race []int, nDept, nRace int, deptScale float64) *ThresholdTest {
	n := len(stops)
	if len(searches) != n || len(hits) != n || len(dept) != n || len(race) != n {
		panic("kernels: threshold test cell slices differ in length")
	}
	k := &ThresholdTest{
		nRace: nRace, nDept: nDept, race: race, dept: dept, deptScale: deptScale,
		stops: make([]float64, n), searches: make([]float64, n), hits: make([]float64, n),
	}
	for c := 0; c < n; c++ {
		if dept[c] < 0 || dept[c] >= nDept || race[c] < 0 || race[c] >= nRace {
			panic("kernels: threshold test cell index out of range")
		}
		if hits[c] < 0 || hits[c] > searches[c] || searches[c] > stops[c] {
			panic("kernels: threshold test counts not nested")
		}
		k.stops[c], k.searches[c], k.hits[c] = float64(stops[c]), float64(searches[c]), float64(hits[c])
		k.lchooseConst += mathx.LChoose(k.stops[c], k.searches[c]) + mathx.LChoose(k.searches[c], k.hits[c])
	}
	return k
}

// LogLik records both binomial blocks as one tape node with edges for
// tRace (nRace), sigma, deptRaw (nDept), cellRaw (cells), hRace (nRace)
// and searchBase, in that order. A first pass gathers every cell's search
// and hit logits into one slice, one mathx.LogisticBlock call gives their
// softplus and sigmoid, and a second pass consumes them.
func (k *ThresholdTest) LogLik(t *ad.Tape, tRace []ad.Var, sigma ad.Var, deptRaw, cellRaw, hRace []ad.Var, searchBase ad.Var) ad.Var {
	n := len(k.stops)
	if len(tRace) != k.nRace || len(hRace) != k.nRace || len(deptRaw) != k.nDept || len(cellRaw) != n {
		panic("kernels: threshold test parameter lengths do not match the cells")
	}
	nIn := 2*k.nRace + k.nDept + n + 2
	buf := t.Scratch(nIn + 6*n)
	d := buf[:nIn]
	for i := range d {
		d[i] = 0
	}
	dT := d[:k.nRace]
	dDept := d[k.nRace+1 : k.nRace+1+k.nDept]
	dCell := d[k.nRace+1+k.nDept : k.nRace+1+k.nDept+n]
	dH := d[nIn-1-k.nRace : nIn-1]
	// eta is every cell's search logit, then every cell's hit logit; sp
	// and sg receive their softplus and sigmoid.
	eta, sp, sg := buf[nIn:nIn+2*n], buf[nIn+2*n:nIn+4*n], buf[nIn+4*n:]
	sig, base := sigma.Value(), searchBase.Value()
	for c := 0; c < n; c++ {
		thr := tRace[k.race[c]].Value() + deptRaw[k.dept[c]].Value()*k.deptScale + sig*cellRaw[c].Value()
		eta[c] = base - thr
		eta[n+c] = hRace[k.race[c]].Value() + thr
	}
	mathx.LogisticBlock(eta, sp, sg)

	var dSigma, dBase float64
	val := k.lchooseConst
	for c := 0; c < n; c++ {
		r, dp := k.race[c], k.dept[c]
		val += k.searches[c]*eta[c] - k.stops[c]*sp[c] + k.hits[c]*eta[n+c] - k.searches[c]*sp[n+c]
		gS := k.searches[c] - k.stops[c]*sg[c]
		gH := k.hits[c] - k.searches[c]*sg[n+c]
		gThr := gH - gS
		dT[r] += gThr
		dDept[dp] += gThr * k.deptScale
		dCell[c] = gThr * sig
		dSigma += gThr * cellRaw[c].Value()
		dH[r] += gH
		dBase += gS
	}
	d[k.nRace] = dSigma
	d[nIn-1] = dBase

	ins := t.ScratchVars(nIn)
	copy(ins, tRace)
	ins[k.nRace] = sigma
	copy(ins[k.nRace+1:], deptRaw)
	copy(ins[k.nRace+1+k.nDept:], cellRaw)
	copy(ins[nIn-1-k.nRace:], hRace)
	ins[nIn-1] = searchBase
	return t.CustomChecked("threshold_test", val, ins, d)
}
