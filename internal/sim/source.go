package sim

import "math/rand"

const (
	srcLen = 607 // math/rand's register length
	srcTap = 273 // and its tap
)

// source is math/rand's additive lagged-Fibonacci generator,
// x[n] = x[n-607] + x[n-273] (mod 2^64), held by value in the kernel.
// Every draw through Kernel.Rand reaches it as a rand.Source64, exactly
// as it would reach rand.NewSource's; Kernel.Float64 reaches it without
// the two interface calls, for the radio's per-receiver loss draw.
type source struct {
	tap, feed int
	vec       [srcLen]int64
}

// Seed puts s in the state rand.NewSource(seed) starts from. math/rand
// keeps that state to itself, so Seed reads it back: one cycle of 607
// draws leaves every word of the register holding the value drawn when
// it was last written, and running those 607 steps backwards from there
// restores the register as it was before the first draw.
func (s *source) Seed(seed int64) {
	r := rand.NewSource(seed).(rand.Source64)
	s.tap, s.feed = 0, srcLen-srcTap
	for range srcLen {
		s.step()
		s.vec[s.feed] = int64(r.Uint64())
	}
	// tap and feed are back where they started, at the indices of the
	// last step.
	for range srcLen {
		s.vec[s.feed] -= s.vec[s.tap]
		s.tap, s.feed = (s.tap+1)%srcLen, (s.feed+1)%srcLen
	}
}

// step moves tap and feed one word down the register.
func (s *source) step() {
	s.tap--
	if s.tap < 0 {
		s.tap += srcLen
	}
	s.feed--
	if s.feed < 0 {
		s.feed += srcLen
	}
}

// Uint64 returns the next value.
func (s *source) Uint64() uint64 {
	s.step()
	x := s.vec[s.feed] + s.vec[s.tap]
	s.vec[s.feed] = x
	return uint64(x)
}

// Int63 returns the next value without its top bit.
func (s *source) Int63() int64 { return int64(s.Uint64() &^ (1 << 63)) }
