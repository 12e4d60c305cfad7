package nn

// SetAVX2 turns the AVX2 kernels on or off for the tests of package nn_test
// and returns the previous setting; on takes effect only where the CPU has
// AVX2. It must not be called while a model trains or predicts.
func SetAVX2(on bool) (was bool) {
	was = useAVX2
	useAVX2 = on && cpuHasAVX2()
	return was
}
