package workloads

import (
	"math"
	"testing"

	"bayessuite/internal/model"
	"bayessuite/internal/rng"
)

// TestGradientsMatchFiniteDifferences is the master correctness test for
// the entire model stack: for every workload, the autodiff gradient of the
// log posterior must match central finite differences at random points.
// Converted workloads are checked on both the fused-kernel path (Model)
// and the legacy tape path (TapeModel).
func TestGradientsMatchFiniteDifferences(t *testing.T) {
	for _, w := range All(0.25, 7) {
		w := w
		t.Run(w.Info.Name, func(t *testing.T) {
			if !w.UsesKernels() {
				checkFiniteDifferences(t, w.Info.Name, w.Model)
				return
			}
			t.Run("kernel", func(t *testing.T) { checkFiniteDifferences(t, w.Info.Name, w.Model) })
			t.Run("tape", func(t *testing.T) { checkFiniteDifferences(t, w.Info.Name, w.TapeModel()) })
		})
	}
}

func checkFiniteDifferences(t *testing.T, name string, m model.Model) {
	ev := model.NewEvaluator(m)
	r := rng.New(99)
	dim := ev.Dim()
	q := make([]float64, dim)
	grad := make([]float64, dim)
	for trial := 0; trial < 3; trial++ {
		for i := range q {
			q[i] = 0.5 * r.Norm()
		}
		lp := ev.LogDensityGrad(q, grad)
		if math.IsInf(lp, -1) {
			t.Logf("trial %d: -Inf density at random point, skipping", trial)
			continue
		}
		if math.IsNaN(lp) {
			t.Fatalf("NaN log density")
		}
		// Check a subset of coordinates (all for small models).
		step := 1
		if dim > 40 {
			step = dim / 40
		}
		rel := 1e-4
		if name == "ode" {
			// RK4 tape values are smooth but large; loosen.
			rel = 1e-3
		}
		checkGradFD(t, "trial "+itoa(trial), ev, q, grad, step, rel)
	}
}

// checkGradFD compares every step-th coordinate of grad, the gradient at
// q, with central finite differences of ev's density (step 1e-5), to rel
// relative to 1 + |fd| + |grad|. A non-finite difference is skipped.
func checkGradFD(t *testing.T, label string, ev *model.Evaluator, q, grad []float64, step int, rel float64) {
	t.Helper()
	const h = 1e-5
	for i := 0; i < len(q); i += step {
		qp := append([]float64(nil), q...)
		qm := append([]float64(nil), q...)
		qp[i] += h
		qm[i] -= h
		fd := (ev.LogDensity(qp) - ev.LogDensity(qm)) / (2 * h)
		if math.IsNaN(fd) || math.IsInf(fd, 0) {
			continue
		}
		diff := math.Abs(fd - grad[i])
		if tol := rel * (1 + math.Abs(fd) + math.Abs(grad[i])); diff > tol {
			t.Errorf("%s: param %d: ad=%.8g fd=%.8g (|diff|=%.3g > tol=%.3g)",
				label, i, grad[i], fd, diff, tol)
		}
	}
}

// TestRegistry checks the registry round trip and Table I metadata.
func TestRegistry(t *testing.T) {
	names := Names()
	if len(names) != 10 {
		t.Fatalf("expected 10 workloads, got %d", len(names))
	}
	for _, n := range names {
		w, err := New(n, 0.25, 1)
		if err != nil {
			t.Fatalf("New(%q): %v", n, err)
		}
		if w.Info.Name != n {
			t.Errorf("name mismatch: %q vs %q", w.Info.Name, n)
		}
		if w.Info.Iterations <= 0 || w.Info.Chains != 4 {
			t.Errorf("%s: bad iteration/chain metadata", n)
		}
		if w.ModeledDataBytes() <= 0 {
			t.Errorf("%s: no modeled data size", n)
		}
		if w.Model.Dim() <= 0 {
			t.Errorf("%s: bad dimension", n)
		}
	}
	if _, err := New("nope", 1, 1); err == nil {
		t.Error("expected error for unknown workload")
	}
}

// TestDistributionCensus checks the §VII-A metadata: every workload
// declares its distributions and the suite-wide tally has the normal
// family on top (the paper: Gaussian and Cauchy are the most popular).
func TestDistributionCensus(t *testing.T) {
	counts := map[string]int{}
	for _, w := range All(0.25, 1) {
		if len(w.Info.Distributions) == 0 {
			t.Errorf("%s: no distribution metadata", w.Info.Name)
		}
		for _, d := range w.Info.Distributions {
			counts[d]++
		}
	}
	for d, c := range counts {
		if d == "normal" || d == "half-cauchy" {
			continue
		}
		if c > counts["normal"] {
			t.Errorf("%s (%d) outranks normal (%d)", d, c, counts["normal"])
		}
	}
	if counts["normal"] < 8 || counts["half-cauchy"] < 8 {
		t.Errorf("normal/half-cauchy should dominate: %v", counts)
	}
}

// TestModeledDataScales checks the -h/-q dataset variants shrink the
// modeled data size monotonically (the Fig. 3 prerequisite).
func TestModeledDataScales(t *testing.T) {
	for _, n := range Names() {
		full, _ := New(n, 1.0, 1)
		half, _ := New(n, 0.5, 1)
		quarter, _ := New(n, 0.25, 1)
		f, h, q := full.ModeledDataBytes(), half.ModeledDataBytes(), quarter.ModeledDataBytes()
		if !(f > h && h > q) {
			t.Errorf("%s: modeled data sizes not decreasing: %d, %d, %d", n, f, h, q)
		}
	}
}

// TestTicketsLargestModeledData checks the suite ordering the paper's
// LLC analysis depends on: tickets has the largest modeled data, and the
// LLC-bound trio exceeds everything else.
func TestTicketsLargestModeledData(t *testing.T) {
	sizes := map[string]int{}
	for _, w := range All(1.0, 1) {
		sizes[w.Info.Name] = w.ModeledDataBytes()
	}
	for name, sz := range sizes {
		if name == "tickets" {
			continue
		}
		if sz >= sizes["tickets"] {
			t.Errorf("%s (%d bytes) >= tickets (%d bytes)", name, sz, sizes["tickets"])
		}
	}
	bound := []string{"ad", "survival", "tickets"}
	for _, b := range bound {
		for name, sz := range sizes {
			if name == "ad" || name == "survival" || name == "tickets" {
				continue
			}
			if sz >= sizes[b] {
				t.Errorf("unbound %s (%d) >= bound %s (%d)", name, sz, b, sizes[b])
			}
		}
	}
}

// TestDeterministicData checks dataset synthesis is reproducible from the
// seed.
func TestDeterministicData(t *testing.T) {
	a, _ := New("12cities", 1, 42)
	b, _ := New("12cities", 1, 42)
	ea := model.NewEvaluator(a.Model)
	eb := model.NewEvaluator(b.Model)
	q := make([]float64, ea.Dim())
	for i := range q {
		q[i] = 0.1 * float64(i%5)
	}
	if la, lb := ea.LogDensity(q), eb.LogDensity(q); la != lb {
		t.Errorf("same seed, different density: %g vs %g", la, lb)
	}
	c, _ := New("12cities", 1, 43)
	ec := model.NewEvaluator(c.Model)
	if la, lc := ea.LogDensity(q), ec.LogDensity(q); la == lc {
		t.Errorf("different seeds produced identical density %g", la)
	}
}
