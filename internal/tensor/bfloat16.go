package tensor

import "math"

// BF16 is an emulated bfloat16 value stored as its 16-bit pattern (the high
// half of an IEEE-754 float32). The paper's §3.4 switches the whole training
// to bfloat16; this file provides faithful round-to-nearest-even conversion
// so the kernels package can measure the numeric effect of the low-precision
// path and the simulator can halve memory traffic consistently.
type BF16 uint16

// ToBF16 converts a float32 to bfloat16 with round-to-nearest-even,
// matching hardware (and PyTorch) semantics. NaNs are preserved as quiet
// NaNs; infinities round to infinities.
func ToBF16(f float32) BF16 {
	bits := math.Float32bits(f)
	if bits&0x7f800000 == 0x7f800000 && bits&0x007fffff != 0 {
		// NaN: keep the sign, force a quiet NaN mantissa bit so truncation
		// cannot produce an infinity.
		return BF16(uint16(bits>>16) | 0x0040)
	}
	// Round to nearest even on the truncated 16 bits.
	rounding := uint32(0x7fff + ((bits >> 16) & 1))
	return BF16((bits + rounding) >> 16)
}

// Float32 expands a bfloat16 back to float32 (exact).
func (b BF16) Float32() float32 {
	return math.Float32frombits(uint32(b) << 16)
}

// RoundBF16 rounds a float32 through bfloat16 and back, i.e. the value a
// bfloat16 compute path would observe.
func RoundBF16(f float32) float32 { return ToBF16(f).Float32() }

// QuantizeBF16 rounds every element of t through bfloat16 in place and
// returns t. This is how the training loop emulates a bf16 forward pass:
// the master copy stays float32 (as in mixed-precision training) while
// activations are degraded to bf16 resolution.
func QuantizeBF16(t *Tensor) *Tensor {
	for i, v := range t.Data {
		t.Data[i] = RoundBF16(v)
	}
	return t
}
