package mathx

// Row passes of the GLM kernels over a row-major n×p design x: the
// linear predictor (DotRows) and the gradient accumulation (AxpyRows).
// Like the block links, each is one algorithm in two encodings, the Go
// bodies below and an AVX2 body (rows_amd64.s) for 4 <= p <= 16, chosen
// by the same CPUID gate. The assembly adds the same terms in the same
// order, with a rounding after every multiply, so the two agree bit for
// bit. Every product below is converted with float64(), which forbids a
// compiler from fusing it into the add that consumes it.

// DotRows adds to eta[j] the dot product of row j of x with beta, then
// u[group[j]] when group is not nil, for every j; p = len(beta) and
// len(x) = len(eta)*p. Each row sums into four partials, the one for
// lane l taking the columns k ≡ l (mod 4) up to the last multiple of
// four and lane 0 the columns after it, folded as (e0+e1)+(e2+e3).
func DotRows(eta, x, beta []float64, group []int, u []float64) {
	if len(x) != len(eta)*len(beta) || group != nil && len(group) != len(eta) {
		panic("mathx: DotRows slice lengths differ")
	}
	j := dotRowsVector(eta, x, beta, group, u)
	if group != nil {
		group = group[j:]
	}
	dotRowsGo(eta[j:], x[j*len(beta):], beta, group, u)
}

// AxpyRows adds r[j]*x[j*p+k] to dBeta[k] for every column k, and r[j]
// to dU[group[j]] when group is not nil, row by row in order j = 0, 1,
// ...; p = len(dBeta) and len(x) = len(r)*p. dBeta and dU must not
// overlap.
func AxpyRows(dBeta, x, r []float64, group []int, dU []float64) {
	if len(x) != len(r)*len(dBeta) || group != nil && len(group) != len(r) {
		panic("mathx: AxpyRows slice lengths differ")
	}
	j := axpyRowsVector(dBeta, x, r, group, dU)
	if group != nil {
		group = group[j:]
	}
	axpyRowsGo(dBeta, x[j*len(dBeta):], r[j:], group, dU)
}

func dotRowsGo(eta, x, beta []float64, group []int, u []float64) {
	p := len(beta)
	for j := range eta {
		xr := x[j*p : j*p+p]
		var e0, e1, e2, e3 float64
		k := 0
		for ; k+3 < p; k += 4 {
			e0 += float64(xr[k] * beta[k])
			e1 += float64(xr[k+1] * beta[k+1])
			e2 += float64(xr[k+2] * beta[k+2])
			e3 += float64(xr[k+3] * beta[k+3])
		}
		for ; k < p; k++ {
			e0 += float64(xr[k] * beta[k])
		}
		eta[j] += (e0 + e1) + (e2 + e3)
		if group != nil {
			eta[j] += u[group[j]]
		}
	}
}

func axpyRowsGo(dBeta, x, r []float64, group []int, dU []float64) {
	p := len(dBeta)
	for j, rj := range r {
		for k, xk := range x[j*p : j*p+p] {
			dBeta[k] += float64(rj * xk)
		}
		if group != nil {
			dU[group[j]] += rj
		}
	}
}
