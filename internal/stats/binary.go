// This file holds the binary state codec behind checkpointed sweep resumes
// (internal/sim, internal/cache): an Accumulator or Sketch serialized here
// and decoded back is bit-identical to the original — every float64 travels
// as its raw IEEE-754 bits, never through a decimal rendering — so a fold
// restored from a checkpoint continues exactly where the crashed fold
// stopped. The encoding is deliberately dumb: little-endian fixed-width
// fields with a leading element count ("length prefix") on every
// variable-length section, and a version byte at each top level so a future
// state change is detected and rejected instead of misread.

package stats

import (
	"encoding/binary"
	"fmt"
	"math"
)

// accumulatorStateVersion guards the Accumulator wire form; bump on any
// change to the field set or ordering below.
const accumulatorStateVersion = 2

// sketchStateVersion guards the Sketch (and embedded P²) wire form.
const sketchStateVersion = 1

func appendU64(b []byte, v uint64) []byte {
	return binary.LittleEndian.AppendUint64(b, v)
}

func appendI64(b []byte, v int) []byte {
	return appendU64(b, uint64(int64(v)))
}

func appendF64(b []byte, v float64) []byte {
	return appendU64(b, math.Float64bits(v))
}

func takeU64(b []byte) (uint64, []byte, error) {
	if len(b) < 8 {
		return 0, nil, fmt.Errorf("stats: truncated binary state")
	}
	return binary.LittleEndian.Uint64(b), b[8:], nil
}

func takeI64(b []byte) (int, []byte, error) {
	v, rest, err := takeU64(b)
	return int(int64(v)), rest, err
}

func takeF64(b []byte) (float64, []byte, error) {
	v, rest, err := takeU64(b)
	return math.Float64frombits(v), rest, err
}

func appendF64s(b []byte, vs []float64) []byte {
	b = appendI64(b, len(vs))
	for _, v := range vs {
		b = appendF64(b, v)
	}
	return b
}

func takeF64s(b []byte, maxLen int) ([]float64, []byte, error) {
	n, b, err := takeI64(b)
	if err != nil {
		return nil, nil, err
	}
	// n > len(b)/8, not len(b) < 8*n: the product wraps for n >= 2^61.
	if n < 0 || n > maxLen || n > len(b)/8 {
		return nil, nil, fmt.Errorf("stats: binary state declares %d values, have %d bytes", n, len(b))
	}
	if n == 0 {
		return nil, b, nil
	}
	vs := make([]float64, n)
	for i := range vs {
		vs[i], b, _ = takeF64(b)
	}
	return vs, b, nil
}

// AppendBinary appends the accumulator's complete internal state — count,
// Welford terms and extremes — to b and returns the extended slice.
// DecodeBinary reverses it exactly.
func (a *Accumulator) AppendBinary(b []byte) []byte {
	b = append(b, accumulatorStateVersion)
	b = appendI64(b, a.n)
	b = appendF64(b, a.mean)
	b = appendF64(b, a.m2)
	b = appendF64(b, a.min)
	return appendF64(b, a.max)
}

// DecodeBinary replaces a's state with the one serialized at the front of b
// and returns the unconsumed remainder. The decoded accumulator is
// bit-identical to the one AppendBinary saw: continuing to Add into it
// produces exactly the states the original would have produced.
func (a *Accumulator) DecodeBinary(b []byte) ([]byte, error) {
	if len(b) < 1 || b[0] != accumulatorStateVersion {
		return nil, fmt.Errorf("stats: unknown accumulator state version")
	}
	b = b[1:]
	var dec Accumulator
	var err error
	if dec.n, b, err = takeI64(b); err != nil {
		return nil, err
	}
	for _, f := range []*float64{&dec.mean, &dec.m2, &dec.min, &dec.max} {
		if *f, b, err = takeF64(b); err != nil {
			return nil, err
		}
	}
	if dec.n < 0 {
		return nil, fmt.Errorf("stats: inconsistent accumulator state (n=%d)", dec.n)
	}
	*a = dec
	return b, nil
}

// appendBinary appends the P² estimator's state to b.
func (p *p2) appendBinary(b []byte) []byte {
	b = appendF64(b, p.q)
	for _, v := range p.n {
		b = appendI64(b, v)
	}
	for _, v := range p.np {
		b = appendF64(b, v)
	}
	for _, v := range p.dn {
		b = appendF64(b, v)
	}
	for _, v := range p.heights {
		b = appendF64(b, v)
	}
	return appendI64(b, p.count)
}

// decodeBinary replaces p's state with the serialized one.
func (p *p2) decodeBinary(b []byte) ([]byte, error) {
	var dec p2
	var err error
	if dec.q, b, err = takeF64(b); err != nil {
		return nil, err
	}
	for i := range dec.n {
		if dec.n[i], b, err = takeI64(b); err != nil {
			return nil, err
		}
	}
	for i := range dec.np {
		if dec.np[i], b, err = takeF64(b); err != nil {
			return nil, err
		}
	}
	for i := range dec.dn {
		if dec.dn[i], b, err = takeF64(b); err != nil {
			return nil, err
		}
	}
	for i := range dec.heights {
		if dec.heights[i], b, err = takeF64(b); err != nil {
			return nil, err
		}
	}
	if dec.count, b, err = takeI64(b); err != nil {
		return nil, err
	}
	if !(dec.q > 0 && dec.q < 1) || dec.count < 0 {
		return nil, fmt.Errorf("stats: inconsistent P2 state")
	}
	*p = dec
	return b, nil
}

// AppendBinary appends the sketch's complete internal state — cap, tracked
// quantiles, the exact-mode sample buffer or the per-quantile P² estimators,
// count and extremes — to b and returns the extended slice.
func (s *Sketch) AppendBinary(b []byte) []byte {
	b = append(b, sketchStateVersion)
	b = appendI64(b, s.cap)
	b = appendI64(b, s.n)
	b = appendF64(b, s.min)
	b = appendF64(b, s.max)
	b = appendF64s(b, s.tracked)
	if s.est == nil {
		b = append(b, 0) // exact mode
		return appendF64s(b, s.samples)
	}
	b = append(b, 1) // estimation mode
	for _, e := range s.est {
		b = e.appendBinary(b)
	}
	return b
}

// DecodeBinary replaces s's state with the one serialized at the front of b
// and returns the unconsumed remainder; the decoded sketch observes and
// summarises bit-identically to the original from here on.
func (s *Sketch) DecodeBinary(b []byte) ([]byte, error) {
	if len(b) < 1 || b[0] != sketchStateVersion {
		return nil, fmt.Errorf("stats: unknown sketch state version")
	}
	b = b[1:]
	var dec Sketch
	var err error
	if dec.cap, b, err = takeI64(b); err != nil {
		return nil, err
	}
	if dec.n, b, err = takeI64(b); err != nil {
		return nil, err
	}
	if dec.min, b, err = takeF64(b); err != nil {
		return nil, err
	}
	if dec.max, b, err = takeF64(b); err != nil {
		return nil, err
	}
	// Tracked quantiles are a short compile-time list; bound them generously
	// so a corrupt count cannot balloon the allocation.
	if dec.tracked, b, err = takeF64s(b, 64); err != nil {
		return nil, err
	}
	for i, q := range dec.tracked {
		// Leaving exact mode builds one P² estimator per tracked quantile,
		// which needs q in (0, 1), and Summary interpolates between them in
		// order.
		if !(q > 0 && q < 1) || (i > 0 && q <= dec.tracked[i-1]) {
			return nil, fmt.Errorf("stats: invalid tracked quantiles %v", dec.tracked)
		}
	}
	if len(b) < 1 {
		return nil, fmt.Errorf("stats: truncated binary state")
	}
	mode := b[0]
	b = b[1:]
	switch mode {
	case 0:
		// Exact mode buffers every observation, at most cap of them.
		if dec.samples, b, err = takeF64s(b, dec.cap); err != nil {
			return nil, err
		}
		if len(dec.samples) != dec.n {
			return nil, fmt.Errorf("stats: inconsistent sketch state (n=%d, %d samples)", dec.n, len(dec.samples))
		}
	case 1:
		// Estimation mode starts at cap+1 observations, and every estimator
		// has seen all of them.
		if dec.n <= dec.cap {
			return nil, fmt.Errorf("stats: inconsistent sketch state (cap=%d, n=%d)", dec.cap, dec.n)
		}
		dec.est = make([]*p2, len(dec.tracked))
		for i := range dec.est {
			e := new(p2)
			if b, err = e.decodeBinary(b); err != nil {
				return nil, err
			}
			if e.q != dec.tracked[i] || e.count != dec.n {
				return nil, fmt.Errorf("stats: P2 estimator %d does not match its sketch", i)
			}
			dec.est[i] = e
		}
	default:
		return nil, fmt.Errorf("stats: unknown sketch mode %d", mode)
	}
	if dec.cap < 4 {
		return nil, fmt.Errorf("stats: inconsistent sketch state (cap=%d)", dec.cap)
	}
	*s = dec
	return b, nil
}
