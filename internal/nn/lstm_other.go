//go:build !amd64

package nn

// useAVX2 is always false on this GOARCH: the Go loop does every row and
// unit. It is a variable only so that tests build on every GOARCH.
var useAVX2 = false

func cpuHasAVX2() bool { return false }

func affineAVX2(z, b, wp, v []float64) { panic("nn: no AVX2 kernel on this GOARCH") }

func cellAVX2(z, c, h []float64) { panic("nn: no AVX2 kernel on this GOARCH") }

func backRowsAVX2(dz, w, dw, v, dx []float64) { panic("nn: no AVX2 kernel on this GOARCH") }
