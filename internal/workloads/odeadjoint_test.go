package workloads

import (
	"math"
	"runtime"
	"testing"

	"bayessuite/internal/model"
	"bayessuite/internal/rng"
)

// odePrior is the prior mean of ode's nine unconstrained parameters.
var odePrior = []float64{math.Log(2), math.Log(10), math.Log(35), math.Log(5), math.Log(5),
	math.Log(0.15), math.Log(0.17), math.Log(0.1), math.Log(0.08)}

// checkSameBits asserts that two evaluators return the same log density and
// gradient words at q.
func checkSameBits(t *testing.T, label string, evK, evT *model.Evaluator, q []float64) {
	t.Helper()
	gK := make([]float64, len(q))
	gT := make([]float64, len(q))
	lpK := evK.LogDensityGrad(q, gK)
	lpT := evT.LogDensityGrad(q, gT)
	if math.Float64bits(lpK) != math.Float64bits(lpT) {
		t.Errorf("%s: logp %.17g (plan) vs %.17g (tape)", label, lpK, lpT)
	}
	for i := range gK {
		if math.Float64bits(gK[i]) != math.Float64bits(gT[i]) {
			t.Errorf("%s grad[%d]: %.17g (plan) vs %.17g (tape)", label, i, gK[i], gT[i])
		}
	}
}

// TestODEPlanBitIdentical: ode's default path, the float RK4 solve with
// its hand-written reverse sweep, returns the legacy tape's log density
// and gradient word for word, so every ode draw is the one the tape path
// would make. It is checked at three dataset scales (three observation
// grids), around the prior mean and far from it, at the adversarial
// points (overflowing solves and NaN rejections included), and on a grid
// where a concentration and an ANC time coincide, which makes RK4VarAt
// take a step of size 0.
func TestODEPlanBitIdentical(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skip("the legacy tape's sweep may fuse multiply-adds off amd64")
	}
	check := func(t *testing.T, w *Workload) {
		evK := model.NewEvaluator(w.Model)
		evT := model.NewEvaluator(w.TapeModel())
		r := rng.New(11)
		q := make([]float64, evK.Dim())
		for trial := 0; trial < 60; trial++ {
			for i := range q {
				q[i] = odePrior[i] + float64(trial%4)*0.5*r.Norm()
			}
			checkSameBits(t, "trial "+itoa(trial), evK, evT, q)
		}
		for i, q := range adversarialPoints(evK.Dim(), r) {
			checkSameBits(t, "adversarial "+itoa(i), evK, evT, q)
		}
	}
	for _, scale := range []float64{0.25, 0.5, 1} {
		w, err := New("ode", scale, 3)
		if err != nil {
			t.Fatal(err)
		}
		t.Run("scale "+itoa(int(scale*100)), func(t *testing.T) { check(t, w) })
	}
	t.Run("shared time", func(t *testing.T) {
		w, _ := New("ode", 1, 3)
		m := *w.TapeModel().(*odeWorkload)
		m.tConc = append([]float64(nil), m.tConc...)
		m.tConc[3] = m.tANC[0]
		if m.tConc[2] >= m.tConc[3] || m.tConc[3] >= m.tConc[4] {
			t.Fatalf("concentration grid %v is not increasing", m.tConc)
		}
		fast := m
		fast.plan = newFKPlan(&m)
		check(t, &Workload{Info: w.Info, Model: &fast, legacy: &m})
	})
}
