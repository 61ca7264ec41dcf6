//go:build !amd64

package mathx

// No vector encoding on this architecture: the Go bodies do all the work.

func hasVector() bool { return false }

func logisticVector(eta, l, q []float64) int { return 0 }

func expVector(dst, x []float64) int { return 0 }
