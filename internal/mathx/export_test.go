package mathx

// ForceGeneric switches LogisticBlock, ExpBlock, DotRows and AxpyRows to
// the Go encoding and returns the function that restores the start-up
// choice, so the external test package can compare the two encodings on
// whole sampler runs.
func ForceGeneric() (restore func()) {
	was := useVector
	useVector = false
	return func() { useVector = was }
}
