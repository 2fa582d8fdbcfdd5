// Copyright 2011 The Go Authors. All rights reserved.
// Use of this source code is governed by a BSD-style
// license that can be found in the LICENSE file.

// The reduction constants PI4A/B/C and the _sin/_cos coefficients below
// are copied from the Go distribution's src/math/sin.go (Go 1.24), whose
// kernel is a simplified version of the Cephes Math Library's sin.c and
// cos.c (Stephen L. Moshier). The LICENSE file the notice above refers to
// is the Go distribution's, copied unchanged into this directory.

package radio

import (
	"math"
	"runtime"
)

// sin coefficients
var _sin = [...]float64{
	1.58962301576546568060e-10, // 0x3de5d8fd1fd19ccd
	-2.50507477628578072866e-8, // 0xbe5ae5e5a9291f5d
	2.75573136213857245213e-6,  // 0x3ec71de3567d48a1
	-1.98412698295895385996e-4, // 0xbf2a01a019bfdf03
	8.33333333332211858878e-3,  // 0x3f8111111110f7d0
	-1.66666666666666307295e-1, // 0xbfc5555555555548
}

// cos coefficients
var _cos = [...]float64{
	-1.13585365213876817300e-11, // 0xbda8fa49a0861a9b
	2.08757008419747316778e-9,   // 0x3e21ee9d7b4e3f05
	-2.75573141792967388112e-7,  // 0xbe927e4f7eac4bc6
	2.48015872888517045348e-5,   // 0x3efa01a019c844f5
	-1.38888888888730564116e-3,  // 0xbf56c16c16c14f91
	4.16666666666665929218e-2,   // 0x3fa555555555554b
}

// cos returns math.Cos(x), bit for bit. It exists only for speed: it is
// math.Cos's kernel with the octant branches taken out. Both polynomials
// are evaluated and the octant picks one, and the sign, by bit masks, so
// the random wave phases of ShadowField.At cost no branch mispredictions.
// Arguments math.Cos reduces with Payne–Hanek (|x| ≥ 2²⁹), and NaN and
// ±Inf, go to math.Cos itself. Where math.Cos is assembly (s390x) every
// argument goes there. TestCosMatchesMath and FuzzCos pin the bit
// equality; any change here must keep them green on every architecture
// the tests run on.
func cos(x float64) float64 {
	const (
		PI4A = 7.85398125648498535156e-1  // 0x3fe921fb40000000, Pi/4 split into three parts
		PI4B = 3.77489470793079817668e-8  // 0x3e64442d00000000,
		PI4C = 2.69515142907905952645e-15 // 0x3ce8469898cc5170,
	)
	x = math.Abs(x)
	if runtime.GOARCH == "s390x" || !(x < 1<<29) {
		return math.Cos(x)
	}
	// Below 2²⁹ the octant fits an int64, whose conversions take no
	// branch, unlike uint64's.
	j := int64(x * (4 / math.Pi)) // integer part of x/(Pi/4)
	j += j & 1                    // map zeros to origin
	y := float64(j)
	z := ((x - y*PI4A) - y*PI4B) - y*PI4C // Extended precision modular arithmetic

	zz := z * z
	s := z + z*zz*((((((_sin[0]*zz)+_sin[1])*zz+_sin[2])*zz+_sin[3])*zz+_sin[4])*zz+_sin[5])
	c := 1.0 - 0.5*zz + zz*zz*((((((_cos[0]*zz)+_cos[1])*zz+_cos[2])*zz+_cos[3])*zz+_cos[4])*zz+_cos[5])

	// j is even; octants 2 and 6 take the sine polynomial, and octants 2
	// and 4 negate.
	useSin := uint64(-(j >> 1 & 1)) // all ones or zero
	bits := math.Float64bits(s)&useSin | math.Float64bits(c)&^useSin
	return math.Float64frombits(bits ^ uint64(j>>1^j>>2)<<63)
}
