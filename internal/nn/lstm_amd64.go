package nn

// useAVX2 selects the AVX2 kernels in lstm_amd64.s. It is set once, here,
// from the CPU's feature bits; tests flip it to run the Go loop.
var useAVX2 = cpuHasAVX2()

// cpuHasAVX2 reports whether the CPU has AVX2 and the OS saves the ymm
// registers: CPUID.1:ECX OSXSAVE and AVX, XCR0 bits 1 and 2, and
// CPUID.7.0:EBX AVX2.
func cpuHasAVX2() bool

// affineAVX2 is affine over every whole block of 16 rows, reading the
// column-packed weights wp. The caller has checked the lengths.
//
//go:noescape
func affineAVX2(z, b, wp, v []float64)

// cellAVX2 is cellRows over every whole group of 4 units. The caller has
// checked the lengths.
//
//go:noescape
func cellAVX2(z, c, h []float64)

// backRowsAVX2 is backRowsGo over every row. The caller has checked the
// lengths.
//
//go:noescape
func backRowsAVX2(dz, w, dw, v, dx []float64)
