// Package jsonnum formats float64 values exactly as encoding/json
// does, without reflection or allocation. It is the one float
// formatter behind the NDJSON codecs (sim.AppendJobMetrics,
// workload.AppendJob).
//
// encoding/json writes the shortest decimal that parses back to the
// same float64, in 'f' form when 1e-6 <= |x| < 1e21 and in 'e' form
// with a trimmed exponent otherwise. Every metric the engine reports
// for a realistic run (releases, completions, flows, path work,
// weights) falls in the 'f' range, so that range gets its own kernel:
// an exact path for integers below 2^53, and otherwise R. Giulietti's
// Schubfach ("The Schubfach way to render doubles", 2020), which finds
// the shortest, closest decimal with three 128-bit multiplies.
// Schubfach only needs 10^-5 … 10^22 there, so the power table has 28
// entries. Everything else (±0, tiny, huge and subnormal values) goes
// through strconv.AppendFloat plus the exponent trim.
//
// TestAppendFloatMatchesStrconv and FuzzAppendJSONFloat pin the kernel
// byte for byte against strconv and encoding/json;
// TestPow10Table recomputes the power table with math/big.
package jsonnum

import (
	"math"
	"math/bits"
	"slices"
	"strconv"
)

// AppendFloat appends f formatted exactly as json.Marshal formats a
// float64 and returns the extended buffer. f must be finite
// (encoding/json rejects NaN and ±Inf; callers gate).
func AppendFloat(dst []byte, f float64) []byte {
	abs := math.Abs(f)
	if !(abs >= 1e-6 && abs < 1e21) {
		return appendOutOfRange(dst, f)
	}
	b := math.Float64bits(f)
	if b>>63 != 0 {
		dst = append(dst, '-')
	}
	c := b&(1<<52-1) | 1<<52
	mq := 1075 - int(b>>52&0x7ff) // the value is c * 2^-mq
	if 0 < mq && mq < 53 && c&(1<<mq-1) == 0 {
		// An integer below 2^53: its digits are the significand
		// shifted down, no rounding involved.
		return appendDecimal(dst, c>>mq, 0)
	}
	d, k := schubfach(c, -mq)
	return appendDecimal(dst, d, k)
}

// appendOutOfRange is the strconv path for everything outside the
// kernel's range: ±0 ("0", "-0"), and magnitudes below 1e-6 or at or
// above 1e21, which encoding/json writes in 'e' form with the
// exponent's leading zero trimmed ("e-09" -> "e-9") to match ES6
// number-to-string.
func appendOutOfRange(dst []byte, f float64) []byte {
	if f == 0 {
		return strconv.AppendFloat(dst, f, 'f', -1, 64)
	}
	dst = strconv.AppendFloat(dst, f, 'e', -1, 64)
	if n := len(dst); n >= 4 && dst[n-4] == 'e' && dst[n-3] == '-' && dst[n-2] == '0' {
		dst[n-2] = dst[n-1]
		dst = dst[:n-1]
	}
	return dst
}

// schubfach returns the shortest decimal d * 10^k that rounds to the
// normal double c * 2^q (2^52 <= c < 2^53), choosing the one closest
// to it (ties to even d) when several have that length. d may carry
// trailing zeros. The caller guarantees 1e-6 <= c * 2^q < 1e21, which
// keeps k inside pow10Table. This is the skeleton of Giulietti's
// figure 7 with the efficient computations of figure 9.
func schubfach(c uint64, q int) (d uint64, k int) {
	out := c & 1 // 1 when c is odd: the rounding interval excludes its endpoints
	cb := c << 2
	cbr := cb + 2
	var cbl uint64
	if c != 1<<52 {
		cbl = cb - 2
		k = (q * 661_971_961_083) >> 41 // floor(log10(2^q))
	} else {
		// A power of two: the gap below is half the gap above.
		cbl = cb - 1
		k = (q*661_971_961_083 - 274_743_187_321) >> 41 // floor(log10(3/4 * 2^q))
	}
	h := q + ((-k)*913_124_641_741)>>38 + 2 // q + floor(log2(10^-k)) + 2
	g := &pow10Table[k-pow10MinK]
	vb := roundToOdd(g, cb<<h)
	vbl := roundToOdd(g, cbl<<h)
	vbr := roundToOdd(g, cbr<<h)

	// vb approximates 4v/10^k, so s has 16 or 17 digits. First try the
	// coarser grid: at most one multiple of 10 * 10^k lies in the
	// rounding interval, and if one does it is the shortest.
	s := vb >> 2
	sp10 := s / 10 * 10
	tp10 := sp10 + 10
	upin := vbl+out <= sp10<<2
	wpin := tp10<<2+out <= vbr
	if upin != wpin {
		if upin {
			return sp10, k
		}
		return tp10, k
	}
	// Otherwise pick from the two neighbours of v on the 10^k grid.
	t := s + 1
	uin := vbl+out <= s<<2
	win := t<<2+out <= vbr
	if uin != win {
		if uin {
			return s, k
		}
		return t, k
	}
	cmp := int64(vb - (s+t)<<1)
	if cmp < 0 || cmp == 0 && s&1 == 0 {
		return s, k
	}
	return t, k
}

// roundToOdd returns cp * g / 2^127 rounded to odd, where g is the
// 126-bit power g[0] * 2^63 + g[1] (Giulietti's rop, section 9.9).
func roundToOdd(g *[2]uint64, cp uint64) uint64 {
	x1, _ := bits.Mul64(g[1], cp)
	y1, y0 := bits.Mul64(g[0], cp)
	z := y0>>1 + x1
	vbp := y1 + z>>63
	if z&(1<<63-1) != 0 {
		vbp |= 1
	}
	return vbp
}

// pow10Table[k-pow10MinK] holds g = floor(10^-k * 2^-r) + 1 split as
// {g >> 63, g & (2^63-1)}, where r is chosen so that
// 2^125 <= 10^-k * 2^-r < 2^126. Schubfach over [1e-6, 1e21) uses
// k in [-22, 5]. TestPow10Table recomputes every entry with math/big.
const pow10MinK = -22

var pow10Table = [...][2]uint64{
	{0x43c33c1937564800, 0x0000000000000001}, // 10^22
	{0x6c6b935b8bbd4000, 0x0000000000000001}, // 10^21
	{0x56bc75e2d6310000, 0x0000000000000001}, // 10^20
	{0x4563918244f40000, 0x0000000000000001}, // 10^19
	{0x6f05b59d3b200000, 0x0000000000000001}, // 10^18
	{0x58d15e1762800000, 0x0000000000000001}, // 10^17
	{0x470de4df82000000, 0x0000000000000001}, // 10^16
	{0x71afd498d0000000, 0x0000000000000001}, // 10^15
	{0x5af3107a40000000, 0x0000000000000001}, // 10^14
	{0x48c2739500000000, 0x0000000000000001}, // 10^13
	{0x746a528800000000, 0x0000000000000001}, // 10^12
	{0x5d21dba000000000, 0x0000000000000001}, // 10^11
	{0x4a817c8000000000, 0x0000000000000001}, // 10^10
	{0x7735940000000000, 0x0000000000000001}, // 10^9
	{0x5f5e100000000000, 0x0000000000000001}, // 10^8
	{0x4c4b400000000000, 0x0000000000000001}, // 10^7
	{0x7a12000000000000, 0x0000000000000001}, // 10^6
	{0x61a8000000000000, 0x0000000000000001}, // 10^5
	{0x4e20000000000000, 0x0000000000000001}, // 10^4
	{0x7d00000000000000, 0x0000000000000001}, // 10^3
	{0x6400000000000000, 0x0000000000000001}, // 10^2
	{0x5000000000000000, 0x0000000000000001}, // 10^1
	{0x4000000000000000, 0x0000000000000001}, // 10^0
	{0x6666666666666666, 0x3333333333333334}, // 10^-1
	{0x51eb851eb851eb85, 0x0f5c28f5c28f5c29}, // 10^-2
	{0x4189374bc6a7ef9d, 0x5916872b020c49bb}, // 10^-3
	{0x68db8bac710cb295, 0x74f0d844d013a92b}, // 10^-4
	{0x53e2d6238da3c211, 0x43f3e0370cdc8755}, // 10^-5
}

// appendDecimal appends d * 10^k in 'f' form: integer digits, then a
// point and the fraction digits only when there is a fraction. The
// digits are written right to left, two at a time.
func appendDecimal(dst []byte, d uint64, k int) []byte {
	if k < 0 { // Schubfach's d may end in zeros; the fraction must not
		for d%10000 == 0 {
			d /= 10000
			k += 4
		}
		for d%10 == 0 {
			d /= 10
			k++
		}
	}
	n := decimalLen(d)
	p := n + k // digits before the decimal point
	var out []byte
	switch {
	case k >= 0: // ddd000
		dst, out = grow(dst, p)
		putDigits(out[:n], d)
		for i := n; i < p; i++ {
			out[i] = '0'
		}
	case p > 0: // dd.ddd
		dst, out = grow(dst, n+1)
		frac := pow10[-k]
		putDigits(out[:p], d/frac)
		out[p] = '.'
		putDigits(out[p+1:], d%frac)
	default: // 0.000ddd
		dst, out = grow(dst, 2-p+n)
		out[0], out[1] = '0', '.'
		for i := 2; i < 2-p; i++ {
			out[i] = '0'
		}
		putDigits(out[2-p:], d)
	}
	return dst
}

// grow extends dst by n bytes and returns it with the new tail.
func grow(dst []byte, n int) ([]byte, []byte) {
	l := len(dst)
	dst = slices.Grow(dst, n)[:l+n]
	return dst, dst[l:]
}

const digitPairs = "00010203040506070809" +
	"10111213141516171819" +
	"20212223242526272829" +
	"30313233343536373839" +
	"40414243444546474849" +
	"50515253545556575859" +
	"60616263646566676869" +
	"70717273747576777879" +
	"80818283848586878889" +
	"90919293949596979899"

// putDigits writes the len(buf) low decimal digits of d into buf,
// zero-padded on the left.
func putDigits(buf []byte, d uint64) {
	i := len(buf)
	for i >= 2 {
		q := d / 100
		r := (d - q*100) * 2
		buf[i-1] = digitPairs[r+1]
		buf[i-2] = digitPairs[r]
		d = q
		i -= 2
	}
	if i == 1 {
		buf[0] = byte('0' + d)
	}
}

var pow10 = [...]uint64{
	1, 1e1, 1e2, 1e3, 1e4, 1e5, 1e6, 1e7, 1e8, 1e9,
	1e10, 1e11, 1e12, 1e13, 1e14, 1e15, 1e16, 1e17, 1e18, 1e19,
}

// decimalLen returns the number of decimal digits in d >= 1.
func decimalLen(d uint64) int {
	t := bits.Len64(d) * 1233 >> 12 // floor(log10(2^bitlen)), off by at most one
	if d < pow10[t] {
		return t
	}
	return t + 1
}
