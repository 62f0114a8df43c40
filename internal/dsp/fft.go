// Package dsp supplies the signal-processing substrate AdaEdge's FFT codec
// depends on: a fast Fourier transform for arbitrary input lengths built
// from an iterative radix-2 kernel plus Bluestein's chirp-z algorithm.
package dsp

import (
	"math"
	"math/cmplx"
)

// ifftInPlace inverts a, overwriting it; the result is a itself when
// len(a) is a power of two and a fresh slice otherwise.
func ifftInPlace(a []complex128) []complex128 {
	if isPow2(len(a)) {
		radix2(a, true)
	} else {
		a = bluestein(a, true)
	}
	inv := complex(1/float64(len(a)), 0)
	for i := range a {
		a[i] *= inv
	}
	return a
}

// FFTRealInto computes the discrete Fourier transform of the real signal
// x into dst's backing array, reallocated if it cannot hold len(x) bins.
// Works for any length, using radix-2 when len(x) is a power of two and
// Bluestein's algorithm otherwise. It allocates nothing when len(x) is a
// power of two and dst has the capacity; other lengths return Bluestein's
// fresh slice.
func FFTRealInto(dst []complex128, x []float64) []complex128 {
	if len(x) == 0 {
		return dst[:0]
	}
	if cap(dst) < len(x) {
		dst = make([]complex128, len(x))
	}
	dst = dst[:len(x)]
	for i, v := range x {
		dst[i] = complex(v, 0)
	}
	if isPow2(len(x)) {
		radix2(dst, false)
		return dst
	}
	return bluestein(dst, false)
}

// IFFTRealInto inverts a spectrum, including the 1/n scaling, and appends
// the real parts to dst[:0], discarding any numerically negligible
// imaginary residue. spec is its workspace and is overwritten. It
// allocates nothing when len(spec) is a power of two and dst has the
// capacity.
func IFFTRealInto(dst []float64, spec []complex128) []float64 {
	dst = dst[:0]
	if len(spec) == 0 {
		return dst
	}
	for _, v := range ifftInPlace(spec) {
		dst = append(dst, real(v))
	}
	return dst
}

func isPow2(n int) bool { return n > 0 && n&(n-1) == 0 }

func nextPow2(n int) int {
	p := 1
	for p < n {
		p <<= 1
	}
	return p
}

// radix2 performs an in-place iterative Cooley-Tukey FFT. len(a) must be a
// power of two. inverse selects the conjugate twiddle factors (the caller
// applies 1/n scaling).
func radix2(a []complex128, inverse bool) {
	n := len(a)
	if n == 1 {
		return
	}
	// Bit-reversal permutation.
	for i, j := 1, 0; i < n; i++ {
		bit := n >> 1
		for ; j&bit != 0; bit >>= 1 {
			j ^= bit
		}
		j ^= bit
		if i < j {
			a[i], a[j] = a[j], a[i]
		}
	}
	sign := -1.0
	if inverse {
		sign = 1.0
	}
	for length := 2; length <= n; length <<= 1 {
		ang := sign * 2 * math.Pi / float64(length)
		wl := cmplx.Exp(complex(0, ang))
		for start := 0; start < n; start += length {
			w := complex(1, 0)
			half := length / 2
			for k := 0; k < half; k++ {
				u := a[start+k]
				v := a[start+k+half] * w
				a[start+k] = u + v
				a[start+k+half] = u - v
				w *= wl
			}
		}
	}
}

// bluestein computes the DFT of arbitrary length via the chirp-z transform,
// expressing it as a convolution evaluated by a padded radix-2 FFT.
func bluestein(a []complex128, inverse bool) []complex128 {
	n := len(a)
	m := nextPow2(2*n - 1)
	sign := -1.0
	if inverse {
		sign = 1.0
	}
	// chirp[k] = exp(sign * i*pi*k^2/n)
	chirp := make([]complex128, n)
	for k := 0; k < n; k++ {
		// Use k^2 mod 2n to keep the angle argument small and precise.
		kk := int64(k) * int64(k) % int64(2*n)
		ang := sign * math.Pi * float64(kk) / float64(n)
		chirp[k] = cmplx.Exp(complex(0, ang))
	}
	fa := make([]complex128, m)
	fb := make([]complex128, m)
	for k := 0; k < n; k++ {
		fa[k] = a[k] * chirp[k]
	}
	fb[0] = cmplx.Conj(chirp[0])
	for k := 1; k < n; k++ {
		c := cmplx.Conj(chirp[k])
		fb[k] = c
		fb[m-k] = c
	}
	radix2(fa, false)
	radix2(fb, false)
	for i := range fa {
		fa[i] *= fb[i]
	}
	radix2(fa, true)
	invM := complex(1/float64(m), 0)
	out := make([]complex128, n)
	for k := 0; k < n; k++ {
		out[k] = fa[k] * invM * chirp[k]
	}
	return out
}
