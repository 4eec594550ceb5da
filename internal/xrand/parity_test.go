package xrand

// These tests pin the value-type Stream to the exact output sequence of the
// previous implementation, which wrapped rand.New(rand.NewPCG(seed,
// splitMix64(seed))): every historical seed must replay identically, or every
// recorded experiment and golden file in the repository silently changes.

import (
	"math/rand/v2"
	"testing"
)

// stdlibFor returns the reference generator the pre-refactor Stream wrapped
// for the given base/path.
func stdlibFor(base uint64, path ...uint64) *rand.Rand {
	seed := DeriveSeed(base, path...)
	return rand.New(rand.NewPCG(seed, splitMix64(seed)))
}

// TestStreamMatchesStdlib interleaves every hot sampler against the stdlib
// reference over many draws: identical consumption, identical values.
func TestStreamMatchesStdlib(t *testing.T) {
	t.Parallel()

	cases := []struct {
		base uint64
		path []uint64
	}{
		{1, nil},
		{42, []uint64{3, 7}},
		{0xdeadbeef, []uint64{0}},
		{7, []uint64{1, 2, 3, 4}},
	}
	for _, c := range cases {
		s := NewStream(c.base, c.path...)
		ref := stdlibFor(c.base, c.path...)
		for i := 0; i < 2000; i++ {
			switch i % 4 {
			case 0:
				if got, want := s.Uint64(), ref.Uint64(); got != want {
					t.Fatalf("base %d step %d: Uint64 = %#x, stdlib %#x", c.base, i, got, want)
				}
			case 1:
				// Power-of-two n takes the mask fast path.
				if got, want := s.IntN(64), ref.IntN(64); got != want {
					t.Fatalf("base %d step %d: IntN(64) = %d, stdlib %d", c.base, i, got, want)
				}
			case 2:
				// Non-power-of-two n takes the Lemire reduction.
				if got, want := s.IntN(17), ref.IntN(17); got != want {
					t.Fatalf("base %d step %d: IntN(17) = %d, stdlib %d", c.base, i, got, want)
				}
			case 3:
				if got, want := s.Float64(), ref.Float64(); got != want {
					t.Fatalf("base %d step %d: Float64 = %v, stdlib %v", c.base, i, got, want)
				}
			}
		}
	}
}

// TestStreamGoldenValues pins literal outputs so a behaviour change in either
// this package or the standard library's PCG is caught even on a toolchain
// where both change together.
func TestStreamGoldenValues(t *testing.T) {
	t.Parallel()

	cases := []struct {
		base uint64
		path []uint64
		want [6]uint64
	}{
		{1, nil, [6]uint64{
			0x27d4f7af48fc6720,
			0x6da7423b4be48cf5,
			0x50c71fa93165b0c4,
			0x16a5e40e5a517384,
			0x44f4ce8c167ec293,
			0x6a020167c93e5ca7,
		}},
		{42, []uint64{3, 7}, [6]uint64{
			0x8ba3465659257be3,
			0x2905ec3e158bcc1e,
			0x7c6978c1ec80c708,
			0xc4acfd48ebae4e49,
			0xfd2b22a3cb78bd1c,
			0xe057da2c57086768,
		}},
	}
	for _, c := range cases {
		s := NewStream(c.base, c.path...)
		for i, want := range c.want {
			if got := s.Uint64(); got != want {
				t.Errorf("base %d path %v output %d = %#x, golden %#x", c.base, c.path, i, got, want)
			}
		}
	}
}

// TestResetReplaysNewStream is the contract the engines rely on to reuse one
// stream across a shard's trials: Reset(base, path...) must put the stream in
// exactly the state NewStream(base, path...) would allocate.
func TestResetReplaysNewStream(t *testing.T) {
	t.Parallel()

	var s Stream
	for trial := uint64(0); trial < 50; trial++ {
		s.Reset(99, trial)
		fresh := NewStream(99, trial)
		for i := 0; i < 20; i++ {
			if got, want := s.Uint64(), fresh.Uint64(); got != want {
				t.Fatalf("trial %d draw %d: reset stream %#x, fresh stream %#x", trial, i, got, want)
			}
		}
	}
}

// TestHotPathAllocFree pins the zero-allocation property of the samplers the
// trial hot path uses, including Reset.
func TestHotPathAllocFree(t *testing.T) {
	var s Stream
	allocs := testing.AllocsPerRun(200, func() {
		s.Reset(7, 3, 1)
		_ = s.Uint64()
		_ = s.IntN(1000)
		_ = s.Float64()
		_ = s.Bernoulli(0.5)
		_ = s.UniformBallPoint(9)
		_ = s.UniformRingPoint(9)
	})
	if allocs != 0 {
		t.Errorf("hot-path samplers allocate %.1f times per run, want 0", allocs)
	}
}
