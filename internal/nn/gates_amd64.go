package nn

// affineKernel is the SSE2 kernel behind affine (gates_amd64.s): it does
// every whole block of 8 rows and returns how many rows that was.
//
//go:noescape
func affineKernel(z, b, w, v []float64) int
