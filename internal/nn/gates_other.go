//go:build !amd64

package nn

// affineKernel leaves every row to the Go loop on this GOARCH.
func affineKernel(z, b, w, v []float64) int { return 0 }
