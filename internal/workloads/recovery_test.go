package workloads

import (
	"math"
	"testing"

	"bayessuite/internal/diag"
	"bayessuite/internal/mathx"
	"bayessuite/internal/mcmc"
	"bayessuite/internal/model"
)

// These tests check the end-to-end statistical correctness of the stack:
// NUTS over the autodiff posterior must recover the generative parameters
// of the synthetic data within posterior uncertainty.

func runNUTS(t *testing.T, w *Workload, iters int) *mcmc.Result {
	t.Helper()
	res := mcmc.Run(mcmc.Config{
		Chains:     4,
		Iterations: iters,
		Seed:       101,
		Parallel:   true,
	}, func() mcmc.Target { return model.NewEvaluator(w.Model) })
	if r := diag.MaxSplitRHat(res.SecondHalfDraws()); r > 1.25 {
		t.Logf("warning: split R-hat %.3f (short run)", r)
	}
	return res
}

func posteriorMeanSD(res *mcmc.Result, dim int) (mean, sd float64) {
	flat := diag.FlattenChains(res.SecondHalfDraws())
	var m, m2 float64
	n := 0.0
	for _, d := range flat {
		n++
		delta := d[dim] - m
		m += delta / n
		m2 += delta * (d[dim] - m)
	}
	return m, math.Sqrt(m2 / (n - 1))
}

func TestTwelveCitiesRecoversTreatmentEffect(t *testing.T) {
	w, _ := New("12cities", 0.5, 5)
	tc := w.Model.(*twelveCities)
	res := runNUTS(t, w, 800)
	betaIdx := w.Model.Dim() - 1
	mean, sd := posteriorMeanSD(res, betaIdx)
	if math.Abs(mean-tc.TrueBeta()) > 4*sd+0.05 {
		t.Errorf("beta posterior %.3f +- %.3f misses truth %.3f", mean, sd, tc.TrueBeta())
	}
}

func TestAdRecoversCoefficients(t *testing.T) {
	w, _ := New("ad", 0.5, 5)
	m := w.Model.(*adAttribution)
	res := runNUTS(t, w, 600)
	for _, j := range []int{0, 1, 2} {
		mean, sd := posteriorMeanSD(res, j)
		if math.Abs(mean-m.TrueBeta()[j]) > 4*sd+0.1 {
			t.Errorf("beta[%d] posterior %.3f +- %.3f misses truth %.3f",
				j, mean, sd, m.TrueBeta()[j])
		}
	}
}

func TestSurvivalRecoversRates(t *testing.T) {
	w, _ := New("survival", 0.25, 5)
	res := runNUTS(t, w, 600)
	// All probabilities are in (0, 1) after constraining, and the
	// posterior should be informative (sd well below the uniform prior's
	// 0.29) for the interior occasions.
	sv := w.Model.(*survival)
	flat := diag.FlattenChains(res.SecondHalfDraws())
	nT := sv.nOcc - 1
	for i := 2; i < nT-2; i++ {
		var mean, n float64
		for _, d := range flat {
			mean += model.ConstrainLowerUpper(d[i], 0, 1)
			n++
		}
		mean /= n
		if mean <= 0.2 || mean >= 0.99 {
			t.Errorf("phi[%d] posterior mean %.3f implausible", i, mean)
		}
	}
}

func TestODERecoversClearance(t *testing.T) {
	w, _ := New("ode", 1, 5)
	res := runNUTS(t, w, 500)
	mean, sd := posteriorMeanSD(res, fkLogCL)
	truth := math.Log(10.0)
	if math.Abs(mean-truth) > 4*sd+0.3 {
		t.Errorf("log CL posterior %.3f +- %.3f misses truth %.3f", mean, sd, truth)
	}
}

func TestMemoryRecoversInterferenceSign(t *testing.T) {
	w, _ := New("memory", 0.5, 5)
	res := runNUTS(t, w, 600)
	// b_a (index 2) is the interference effect on accuracy, truth -0.6.
	mean, sd := posteriorMeanSD(res, 2)
	if mean > 0 {
		t.Errorf("accuracy interference effect %.3f +- %.3f has wrong sign", mean, sd)
	}
}

func TestHMCAgreesWithNUTS(t *testing.T) {
	// §IV-A: HMC single-core characteristics are similar; statistically
	// the two samplers must agree on the posterior.
	w, _ := New("12cities", 0.25, 5)
	nuts := runNUTS(t, w, 800)
	hmc := mcmc.Run(mcmc.Config{
		Chains: 4, Iterations: 1200, Seed: 7, Sampler: mcmc.HMC, Parallel: true,
	}, func() mcmc.Target { return model.NewEvaluator(w.Model) })

	betaIdx := w.Model.Dim() - 1
	mN, sN := posteriorMeanSD(nuts, betaIdx)
	mH, sH := posteriorMeanSD(hmc, betaIdx)
	if math.Abs(mN-mH) > 4*(sN+sH)+0.05 {
		t.Errorf("NUTS beta %.3f +- %.3f vs HMC %.3f +- %.3f disagree", mN, sN, mH, sH)
	}
}

// ---- Statistical gates on the collapsed and fused kernel paths ----
//
// Each runs NUTS, 4 chains, seeded, through w.Model — the kernel — and asks
// for the generative truth back within posterior uncertainty.

func TestButterflyRecoversCommunityMeans(t *testing.T) {
	w, _ := New("butterfly", 1, 5)
	sum := diag.Summarize(runNUTS(t, w, 600).SecondHalfDraws(), nil)
	// q[0] = mu_psi (truth 0.2), q[2] = mu_p (truth -0.5).
	for _, c := range []struct {
		name  string
		idx   int
		truth float64
	}{{"mu_psi", 0, 0.2}, {"mu_p", 2, -0.5}} {
		if s := sum[c.idx]; math.Abs(s.Mean-c.truth) > 3*s.SD {
			t.Errorf("%s posterior %.3f +- %.3f misses truth %.3f", c.name, s.Mean, s.SD, c.truth)
		}
	}
}

func TestRacialRecoversThresholdOrdering(t *testing.T) {
	w, _ := New("racial", 0.6, 5)
	rc := w.Model.(*racial)
	flat := diag.FlattenChains(runNUTS(t, w, 500).SecondHalfDraws())
	// The generative thresholds are 0 > -0.1 > -0.30, -0.35: races 1 and
	// 2 are searched on less evidence than race 3, and race 3 on less
	// than race 0. Only differences are identified by the likelihood (a
	// common shift trades off against searchBase and h_race), so the gate
	// is on the posterior of each contrast.
	contrast := func(a, b int) (mean, sd float64) {
		d := make([]float64, len(flat))
		for i, q := range flat {
			d[i] = q[a] - q[b]
		}
		m, v := mathx.MeanVar(d)
		return m, math.Sqrt(v)
	}
	for _, c := range [][2]int{{1, 0}, {2, 0}, {3, 0}, {1, 3}, {2, 3}} {
		if m, sd := contrast(c[0], c[1]); m >= 0 {
			t.Errorf("t_race[%d] - t_race[%d] = %.3f +- %.3f, want negative", c[0], c[1], m, sd)
		}
	}
	for _, c := range [][2]int{{1, 0}, {2, 0}} {
		if m, sd := contrast(c[0], c[1]); m > -2*sd {
			t.Errorf("t_race[%d] - t_race[%d] = %.3f +- %.3f, want below zero by 2 sd", c[0], c[1], m, sd)
		}
	}
	base := make([]float64, len(flat))
	for i, q := range flat {
		base[i] = q[rc.Dim()-1]
	}
	if m, v := mathx.MeanVar(base); math.Abs(m+2.5) > 3*math.Sqrt(v) || math.Abs(m+2.5) > 0.5 {
		t.Errorf("searchBase posterior %.3f +- %.3f misses truth -2.5", m, math.Sqrt(v))
	}
}

func TestDiseaseRecoversCurvesAndNoise(t *testing.T) {
	w, _ := New("disease", 0.5, 5)
	ds := w.Model.(*disease)
	flat := diag.FlattenChains(runNUTS(t, w, 600).SecondHalfDraws())
	// Posterior-mean coefficients and noise scales on the natural scale.
	nCoef := ds.nMarkers * ds.nBasis
	coef := make([]float64, nCoef)
	sigma := make([]float64, ds.nMarkers)
	for _, q := range flat {
		for k := range coef {
			coef[k] += math.Exp(q[ds.nPatients+k]) / float64(len(flat))
		}
		for j := range sigma {
			sigma[j] += math.Exp(q[ds.nPatients+nCoef+j]) / float64(len(flat))
		}
	}
	for j := 0; j < ds.nMarkers; j++ {
		// The generative noise scale is 0.08 on every marker.
		if sigma[j] < 0.04 || sigma[j] > 0.16 {
			t.Errorf("sigma[%d] posterior mean %.3f not within a factor of two of 0.08", j, sigma[j])
		}
		// Each marker's curve rises over the stages, by about as much as
		// the data do from the earliest patients to the latest.
		cj := coef[j*ds.nBasis : (j+1)*ds.nBasis]
		prev, _ := ds.basis.Curve(cj, 0, nil)
		lo := prev
		for x := 0.05; x <= 1.0001; x += 0.05 {
			v, _ := ds.basis.Curve(cj, math.Min(x, 1), nil)
			if v < prev {
				t.Errorf("marker %d posterior-mean curve falls at stage %.2f", j, x)
			}
			prev = v
		}
		yLo, yHi := math.Inf(1), math.Inf(-1)
		for _, y := range ds.ycols[j] {
			yLo, yHi = math.Min(yLo, y), math.Max(yHi, y)
		}
		if rise, span := prev-lo, yHi-yLo; rise < 0.5*span || rise > 2*span {
			t.Errorf("marker %d curve rises %.3f over the stages, data span %.3f", j, rise, span)
		}
	}
}

// TestKernelChainsAgreeWithLegacy is the run-level check on each collapsed
// or fused port: NUTS from one seed through the kernel and through the
// legacy tape must agree on every posterior mean within 3 Monte Carlo
// standard errors (the two runs' MCSEs added). Bit-identical draws are
// not the contract here. The two densities differ at the 1e-8 level by
// design, so the trajectories start out indistinguishable, then part at
// the first accept decision or tree doubling that a last-place difference
// tips, and from there are two different samples of the same posterior.
func TestKernelChainsAgreeWithLegacy(t *testing.T) {
	for _, c := range []struct {
		name  string
		scale float64
		iters int
	}{{"survival", 0.25, 600}, {"butterfly", 0.5, 600}, {"racial", 0.25, 600}, {"disease", 0.05, 300}, {"votes", 0.02, 300}} {
		c := c
		t.Run(c.name, func(t *testing.T) {
			w, _ := New(c.name, c.scale, 5)
			run := func(m model.Model) []diag.Summary {
				res := mcmc.Run(mcmc.Config{Chains: 4, Iterations: c.iters, Seed: 101, Parallel: true},
					func() mcmc.Target { return model.NewEvaluator(m) })
				return diag.Summarize(res.SecondHalfDraws(), nil)
			}
			kernel, legacy := run(w.Model), run(w.TapeModel())
			for d := range kernel {
				k, l := kernel[d], legacy[d]
				mcse := k.SD/math.Sqrt(k.ESS) + l.SD/math.Sqrt(l.ESS)
				if math.Abs(k.Mean-l.Mean) > 3*mcse {
					t.Errorf("param %d: kernel mean %.4f vs legacy %.4f, |diff| %.4f > 3 MCSE %.4f",
						d, k.Mean, l.Mean, math.Abs(k.Mean-l.Mean), 3*mcse)
				}
			}
		})
	}
}
