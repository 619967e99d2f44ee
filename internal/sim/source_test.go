package sim

import (
	"math/rand"
	"strconv"
	"testing"
)

// TestKernelSourceParity holds the kernel's own source to
// math/rand's: a kernel and rand.New(rand.NewSource(seed)) must agree on
// a million mixed draws — Kernel.Float64 beside the draws callers make
// through Rand() — for every seed below, and again after Rand().Seed
// re-seeds the kernel's source.
func TestKernelSourceParity(t *testing.T) {
	const draws = 1_000_000
	check := func(name string, k *Kernel, want *rand.Rand) {
		t.Helper()
		got := k.Rand()
		for i := 0; i < draws; i++ {
			var g, w any
			switch n := int64(i%97 + 1); i % 5 {
			case 0:
				g, w = k.Float64(), want.Float64()
			case 1:
				n <<= uint(i % 40) // small bounds, powers of two and past 2^31
				g, w = got.Int63n(n), want.Int63n(n)
			case 2:
				g, w = got.Intn(int(n)), want.Intn(int(n))
			case 3:
				g, w = got.ExpFloat64(), want.ExpFloat64()
			case 4:
				g, w = got.Float64(), want.Float64()
			}
			if g != w {
				t.Fatalf("%s: draw %d: kernel %v, math/rand %v", name, i, g, w)
			}
		}
	}
	for _, seed := range []int64{0, 1, 7, -5, 1101, 1<<40 + 3} {
		check("seed "+strconv.FormatInt(seed, 10), New(seed), rand.New(rand.NewSource(seed)))
	}
	k := New(7)
	k.Float64()
	k.Rand().Seed(99)
	check("re-seeded to 99", k, rand.New(rand.NewSource(99)))
}
