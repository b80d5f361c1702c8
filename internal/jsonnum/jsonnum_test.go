package jsonnum

import (
	"bytes"
	"encoding/json"
	"math"
	"math/big"
	"math/rand/v2"
	"strconv"
	"testing"
)

// reference is the formatter AppendFloat replaces: strconv's shortest
// form in the format encoding/json picks, exponent leading zero
// trimmed. encoding/json's own floatEncoder does exactly this.
func reference(b []byte, f float64) []byte {
	abs := math.Abs(f)
	format := byte('f')
	if abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	b = strconv.AppendFloat(b, f, format, -1, 64)
	if format == 'e' {
		if n := len(b); n >= 4 && b[n-4] == 'e' && b[n-3] == '-' && b[n-2] == '0' {
			b[n-2] = b[n-1]
			b = b[:n-1]
		}
	}
	return b
}

// edgeCases trip hand-rolled JSON float encoders: negative zero, the
// 'f'/'e' format cutoffs on both sides, subnormals, and the largest
// finite magnitudes.
var edgeCases = []float64{
	0, math.Copysign(0, -1), 1, -1, 0.1, 1.5, 2.0 / 3.0,
	1e-6, 9.999999999999999e-7, -1e-6, 1e-7,
	1e21, 9.999999999999999e20, -1e21, 1.0000000000000001e21,
	1e-9, 1e-300, 5e-324, -5e-324,
	math.MaxFloat64, -math.MaxFloat64, math.SmallestNonzeroFloat64,
	123456789.123456789, 1 / 3.0, 1e20, 1e6,
	1 << 53, 1<<53 - 1, 1<<53 + 2, 68.34375, 0.3, 5e-7, 4.35,
}

// checker compares AppendFloat against reference (and both signs of
// each value) through one reused pair of buffers.
type checker struct {
	t         *testing.T
	got, want []byte
	n         int
}

func (c *checker) check(f float64) {
	c.t.Helper()
	for _, v := range [2]float64{f, -f} {
		c.got = AppendFloat(c.got[:0], v)
		c.want = reference(c.want[:0], v)
		c.n++
		if !bytes.Equal(c.got, c.want) {
			c.t.Fatalf("AppendFloat(%v) [bits %#x] = %s, want %s", v, math.Float64bits(v), c.got, c.want)
		}
	}
}

// around checks f and its neighbours one ulp either side.
func (c *checker) around(f float64) {
	c.t.Helper()
	c.check(math.Nextafter(f, 0))
	c.check(f)
	c.check(math.Nextafter(f, math.Inf(1)))
}

func TestAppendFloatMatchesStrconv(t *testing.T) {
	c := &checker{t: t}
	for _, f := range edgeCases {
		c.around(f)
	}
	// Every power of 2 and 10 from the subnormals to the top of the
	// range, ±1 ulp: the irregular-spacing branch and the k boundaries
	// of the power table sit on these.
	for e := -1074; e <= 1023; e++ {
		c.around(math.Ldexp(1, e))
	}
	for e := -323; e <= 308; e++ {
		p, err := strconv.ParseFloat("1e"+strconv.Itoa(e), 64)
		if err != nil {
			t.Fatal(err)
		}
		c.around(p)
	}
	// Integers around 2^53, where the exact path hands over to
	// Schubfach, and around 2^54.
	for _, base := range []float64{1 << 53, 1 << 54} {
		for i := -2048.0; i <= 2048; i++ {
			c.check(base + i)
		}
	}
	// Dyadics m/2^k: the completion times of a store-and-forward
	// schedule with power-of-two speeds look like these.
	for k := 0; k <= 40; k++ {
		for m := 1; m <= 4096; m++ {
			c.check(math.Ldexp(float64(m), -k))
		}
	}
	// Short decimals: m/10^j for small m, every magnitude in range.
	for j := -21; j <= 7; j++ {
		for m := 1; m <= 999; m++ {
			f, err := strconv.ParseFloat(strconv.Itoa(m)+"e"+strconv.Itoa(-j), 64)
			if err != nil {
				t.Fatal(err)
			}
			c.check(f)
		}
	}
	// A fixed-seed sample of random bit patterns across the kernel's
	// range [1e-6, 1e21), plus random subnormals and huge values on
	// the fallback path.
	samples := 3_000_000
	if testing.Short() {
		samples = 200_000
	}
	rng := rand.New(rand.NewPCG(1, 2))
	lo, hi := math.Float64bits(1e-6), math.Float64bits(1e21)
	for i := 0; i < samples; i++ {
		c.check(math.Float64frombits(lo + rng.Uint64N(hi-lo)))
	}
	for i := 0; i < samples/100; i++ {
		c.check(math.Float64frombits(rng.Uint64N(1 << 52)))                                   // subnormal
		c.check(math.Float64frombits(hi + rng.Uint64N(math.Float64bits(math.MaxFloat64)-hi))) // huge
	}
	t.Logf("%d values matched", c.n)
}

// reference is encoding/json's own formatting rule, so the
// differential above means byte identity with json.Marshal; check the
// edge cases against json.Marshal directly too.
func TestAppendFloatMatchesMarshal(t *testing.T) {
	for _, f := range edgeCases {
		for _, v := range [2]float64{f, -f} {
			want, err := json.Marshal(v)
			if err != nil {
				t.Fatal(err)
			}
			if got := AppendFloat(nil, v); !bytes.Equal(got, want) {
				t.Fatalf("AppendFloat(%v) = %s, json.Marshal = %s", v, got, want)
			}
		}
	}
}

func TestAppendFloatAppendsWithoutAllocating(t *testing.T) {
	buf := make([]byte, 0, 64)
	buf = append(buf, "x="...)
	if got := string(AppendFloat(buf, 68.34375)); got != "x=68.34375" {
		t.Fatalf("AppendFloat did not append to the prefix: %q", got)
	}
	vals := []float64{1, 68.34375, 2.0 / 3.0, 123456.789, 1e-7, 0}
	allocs := testing.AllocsPerRun(100, func() {
		for _, v := range vals {
			buf = AppendFloat(buf[:0], v)
		}
	})
	if allocs > 0 {
		t.Fatalf("AppendFloat into a buffer with room allocates %.1f/op, want 0", allocs)
	}
}

// TestPow10Table recomputes the hard-coded Schubfach powers: for each
// k, g = floor(10^-k * 2^-r) + 1 with r chosen so that
// 2^125 <= 10^-k * 2^-r < 2^126, split at bit 63.
func TestPow10Table(t *testing.T) {
	ten := big.NewInt(10)
	mask := new(big.Int).Sub(new(big.Int).Lsh(big.NewInt(1), 63), big.NewInt(1))
	for i, got := range pow10Table {
		e := -(pow10MinK + i)               // the table entry approximates 10^e
		sh := 125 - (e*913_124_641_741)>>38 // 125 - floor(log2(10^e))
		g := new(big.Int)
		if e >= 0 {
			g.Exp(ten, big.NewInt(int64(e)), nil)
			g.Lsh(g, uint(sh))
		} else {
			g.Lsh(big.NewInt(1), uint(sh))
			g.Quo(g, new(big.Int).Exp(ten, big.NewInt(int64(-e)), nil))
		}
		g.Add(g, big.NewInt(1))
		if g.BitLen() != 126 {
			t.Fatalf("10^%d: g has %d bits, want 126", e, g.BitLen())
		}
		hi := new(big.Int).Rsh(g, 63).Uint64()
		lo := new(big.Int).And(g, mask).Uint64()
		if got != [2]uint64{hi, lo} {
			t.Fatalf("pow10Table entry for 10^%d = {%#x, %#x}, want {%#x, %#x}", e, got[0], got[1], hi, lo)
		}
	}
	// The table covers every k Schubfach needs over [1e-6, 1e21):
	// binary exponents q from that of 1e-6 to that of the largest
	// value below 1e21, regular and power-of-two spacing.
	qlo := int(math.Float64bits(1e-6)>>52) - 1075
	qhi := int(math.Float64bits(math.Nextafter(1e21, 0))>>52) - 1075
	for q := qlo; q <= qhi; q++ {
		for _, k := range []int{(q * 661_971_961_083) >> 41, (q*661_971_961_083 - 274_743_187_321) >> 41} {
			if i := k - pow10MinK; i < 0 || i >= len(pow10Table) {
				t.Fatalf("q=%d needs k=%d, outside the table", q, k)
			}
		}
	}
}

// FuzzAppendJSONFloat differentially pins AppendFloat against
// strconv and encoding/json over arbitrary finite float64s.
func FuzzAppendJSONFloat(f *testing.F) {
	for _, v := range edgeCases {
		f.Add(v)
	}
	f.Fuzz(func(t *testing.T, v float64) {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return
		}
		got := AppendFloat(nil, v)
		if want := reference(nil, v); !bytes.Equal(got, want) {
			t.Fatalf("AppendFloat(%v) [bits %#x] = %s, strconv reference %s", v, math.Float64bits(v), got, want)
		}
		want, err := json.Marshal(v)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("AppendFloat(%v) = %s, json.Marshal %s", v, got, want)
		}
	})
}

func BenchmarkAppendFloat(b *testing.B) {
	for _, bc := range []struct {
		name string
		v    float64
	}{
		{"one", 1},
		{"dyadic", 68.34375},
		{"17digits", 2.0 / 3.0 * 1000},
		{"fallback", 1e-9},
	} {
		b.Run(bc.name, func(b *testing.B) {
			buf := make([]byte, 0, 32)
			for i := 0; i < b.N; i++ {
				buf = AppendFloat(buf[:0], bc.v)
			}
		})
	}
}
