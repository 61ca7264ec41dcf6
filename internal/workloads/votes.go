package workloads

import (
	"math"

	"bayessuite/internal/ad"
	"bayessuite/internal/data"
	"bayessuite/internal/dist"
	"bayessuite/internal/kernels"
	"bayessuite/internal/linalg"
	"bayessuite/internal/model"
	"bayessuite/internal/rng"
)

// votes is the "votes" workload: forecasting US presidential election
// results per state from the 1976-2016 historical record with a Gaussian
// process over time (StanCon 2017). Each state's logit vote share is a
// draw from a GP with shared amplitude/lengthscale hyperparameters plus a
// state-level mean; the differentiable Cholesky factorization of the
// kernel matrix runs on the autodiff tape every evaluation, giving votes
// the dense regular arithmetic that makes it the suite's highest-IPC
// workload (Fig. 1a).
//
// That is the legacy tape path, a node per scalar step of the
// factorization. The default path (gp != nil) runs kernel matrix,
// Cholesky, the per-state products and the normal likelihood in floats
// with a hand-written reverse sweep, as one tape node.
type votes struct {
	nStates, nYears int
	years           []float64   // scaled election years
	share           [][]float64 // logit Democratic vote share per state x year

	gp *kernels.GPNormal // nil on the legacy tape path
}

// kernelJitter keeps the squared-exponential kernel matrix positive
// definite.
const kernelJitter = 1e-6

// NewVotes builds the votes workload at the given dataset scale.
func NewVotes(scale float64, seed uint64) *Workload {
	r := rng.New(seed ^ 0x107e5)
	nStates := data.Scale(50, scale)
	const nYears = 11 // 1976, 1980, ..., 2016

	w := &votes{nStates: nStates, nYears: nYears}
	w.years = make([]float64, nYears)
	for i := range w.years {
		w.years[i] = float64(i) / 2.5 // decades-ish scaling
	}
	// Generative truth: draw each state's trajectory from the GP.
	alphaT, rhoT, sigT := 0.45, 1.2, 0.12
	k := kernelMatrix(w.years, alphaT, rhoT, kernelJitter)
	l, err := linalg.Cholesky(k)
	if err != nil {
		panic("workloads: votes kernel not PD: " + err.Error())
	}
	for s := 0; s < nStates; s++ {
		mu := 0.5 * r.Norm() // state lean
		z := make([]float64, nYears)
		for i := range z {
			z[i] = r.Norm()
		}
		f := l.MulVec(z)
		row := make([]float64, nYears)
		for i := range row {
			row[i] = mu + f[i] + sigT*r.Norm()
		}
		w.share = append(w.share, row)
	}
	w.gp = kernels.NewGPNormal(w.years, w.share, kernelJitter)
	legacy := *w
	legacy.gp = nil
	return &Workload{
		Info: Info{
			Name:          "votes",
			Family:        "Gaussian Processes",
			Application:   "Forecasting presidential votes",
			Source:        "StanCon 2017",
			Data:          "synthetic 1976-2016 state vote shares",
			Iterations:    1500,
			Chains:        4,
			CodeKB:        22,
			BranchMPKI:    0.3,
			BaseIPC:       2.8,
			Distributions: []string{"normal", "half-cauchy", "lognormal", "multivariate-normal"},
		},
		Model:  w,
		legacy: &legacy,
	}
}

// kernelMatrix builds the squared-exponential kernel on plain floats.
func kernelMatrix(x []float64, alpha, rho, jitter float64) *linalg.Matrix {
	n := len(x)
	k := linalg.NewMatrix(n, n)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			d := x[i] - x[j]
			v := alpha * alpha * math.Exp(-d*d/(2*rho*rho))
			if i == j {
				v += jitter
			}
			k.Set(i, j, v)
		}
	}
	return k
}

func (w *votes) Name() string { return "votes" }

// Dim: log alpha, log rho, log sigma, mu0, log tau, mu_raw[nStates],
// z[nStates x nYears].
func (w *votes) Dim() int { return 5 + w.nStates + w.nStates*w.nYears }

func (w *votes) ModeledDataBytes() int {
	return data.Bytes8(w.nStates*w.nYears + w.nYears)
}

func (w *votes) LogPosterior(t *ad.Tape, q []ad.Var) ad.Var {
	b := model.NewBuilder(t)
	i := 0
	alpha := b.Positive(q[i])
	i++
	rho := b.Lower(q[i], 0.05) // keep the lengthscale away from 0
	i++
	sigma := b.Positive(q[i])
	i++
	mu0 := q[i]
	i++
	tau := b.Positive(q[i])
	i++
	muRaw := q[i : i+w.nStates]
	i += w.nStates
	z := q[i:]

	// Hyperpriors.
	b.Add(halfCauchy1.LPDF(t, alpha))
	b.Add(rhoPrior.LPDF(t, rho))
	b.Add(halfCauchyHalf.LPDF(t, sigma))
	b.Add(stdNormal.LPDF(t, mu0))
	b.Add(halfCauchy1.LPDF(t, tau))
	b.Add(stdNormal.LPDFVarData(t, muRaw))
	b.Add(stdNormal.LPDFVarData(t, z))

	if w.gp != nil {
		b.Add(w.gp.LogLik(t, alpha, rho, sigma, mu0, tau, muRaw, z))
		return b.Result()
	}
	// Differentiable kernel Cholesky: K = alpha^2 exp(-d^2/(2 rho^2)) + jI.
	n := w.nYears
	alpha2 := t.Square(alpha)
	invRho2 := t.Div(ad.Const(0.5), t.Square(rho)) // 1/(2 rho^2)
	km := make([]ad.Var, n*n)
	for a := 0; a < n; a++ {
		for c := 0; c <= a; c++ {
			d := w.years[a] - w.years[c]
			v := t.Mul(alpha2, t.Exp(t.MulConst(invRho2, -d*d)))
			if a == c {
				v = t.AddConst(v, kernelJitter)
			}
			km[a*n+c] = v
			km[c*n+a] = v
		}
	}
	l := ad.CholeskyVar(t, km, n)

	// Per-state latent trajectory: f_s = mu_s + L z_s (non-centered).
	for s := 0; s < w.nStates; s++ {
		mu := t.Add(mu0, t.Mul(tau, muRaw[s]))
		f := ad.MatVecVar(t, l, n, z[s*n:(s+1)*n])
		muObs := make([]ad.Var, n)
		for yIdx := 0; yIdx < n; yIdx++ {
			muObs[yIdx] = t.Add(mu, f[yIdx])
		}
		b.Add(dist.NormalLPDFVec(t, w.share[s], muObs, sigma))
	}
	return b.Result()
}

// ForecastMean returns the GP conditional-mean forecast for state s at
// future scaled years, given one unconstrained posterior draw — the
// posterior-predictive machinery behind the votesforecast example.
func (w *votes) ForecastMean(q []float64, s int, future []float64) []float64 {
	alpha := math.Exp(q[0])
	rho := 0.05 + math.Exp(q[1])
	mu0 := q[3]
	tau := math.Exp(q[4])
	mu := mu0 + tau*q[5+s]
	zs := q[5+w.nStates+s*w.nYears : 5+w.nStates+(s+1)*w.nYears]

	k := kernelMatrix(w.years, alpha, rho, kernelJitter)
	l, err := linalg.Cholesky(k)
	if err != nil {
		return nil
	}
	f := l.MulVec(zs)
	wv := linalg.CholSolve(l, f)
	out := make([]float64, len(future))
	for fi, xf := range future {
		ks := make([]float64, w.nYears)
		for j, xo := range w.years {
			d := xf - xo
			ks[j] = alpha * alpha * math.Exp(-d*d/(2*rho*rho))
		}
		out[fi] = mu + linalg.Dot(ks, wv)
	}
	return out
}
