package hw

// ResetLLCMemo empties the simulator's memo table, so a benchmark in the
// external test package can time a cold process.
func ResetLLCMemo() {
	llcMemo.mu.Lock()
	llcMemo.m = make(map[llcKey]*memoEntry[float64])
	llcMemo.mu.Unlock()
}
