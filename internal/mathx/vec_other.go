//go:build !amd64

package mathx

// No vector encoding on this architecture: the Go bodies do all the work.

func hasVector() bool { return false }

func logisticVector(eta, l, q []float64) int { return 0 }

func expVector(dst, x []float64) int { return 0 }

func dotRowsVector(eta, x, beta []float64, group []int, u []float64) int { return 0 }

func axpyRowsVector(dBeta, x, r []float64, group []int, dU []float64) int { return 0 }
