// Package tensor provides a small dense float32 tensor library used as the
// numeric substrate for the ScaleFold reproduction. Tensors are row-major
// with explicit shapes; the package favours predictable memory behaviour
// (flat backing slices, no hidden copies) so that kernel implementations in
// package kernels can reason about memory traffic the way the paper's Triton
// kernels reason about DRAM traffic.
package tensor

import (
	"fmt"
	"math"
	"math/rand"
)

// Tensor is a dense row-major float32 tensor.
type Tensor struct {
	Data  []float32
	shape []int
}

// New returns a zero-filled tensor with the given shape.
func New(shape ...int) *Tensor {
	n := 1
	for _, d := range shape {
		if d < 0 {
			panic(fmt.Sprintf("tensor: negative dimension %d in shape %v", d, shape))
		}
		n *= d
	}
	s := make([]int, len(shape))
	copy(s, shape)
	return &Tensor{Data: make([]float32, n), shape: s}
}

// FromSlice wraps data in a tensor of the given shape. The slice is used
// directly, not copied; len(data) must equal the shape's element count.
func FromSlice(data []float32, shape ...int) *Tensor {
	n := 1
	for _, d := range shape {
		n *= d
	}
	if len(data) != n {
		panic(fmt.Sprintf("tensor: data length %d does not match shape %v (%d elements)", len(data), shape, n))
	}
	s := make([]int, len(shape))
	copy(s, shape)
	return &Tensor{Data: data, shape: s}
}

// Shape returns the tensor's shape. The returned slice must not be modified.
func (t *Tensor) Shape() []int { return t.shape }

// Dim returns the size of dimension i.
func (t *Tensor) Dim(i int) int { return t.shape[i] }

// Rank returns the number of dimensions.
func (t *Tensor) Rank() int { return len(t.shape) }

// Len returns the total number of elements.
func (t *Tensor) Len() int { return len(t.Data) }

// Clone returns a deep copy of t.
func (t *Tensor) Clone() *Tensor {
	c := New(t.shape...)
	copy(c.Data, t.Data)
	return c
}

// Reshape returns a view of t with a new shape covering the same data.
func (t *Tensor) Reshape(shape ...int) *Tensor {
	n := 1
	for _, d := range shape {
		n *= d
	}
	if n != len(t.Data) {
		panic(fmt.Sprintf("tensor: cannot reshape %v (%d elems) to %v (%d elems)", t.shape, len(t.Data), shape, n))
	}
	s := make([]int, len(shape))
	copy(s, shape)
	return &Tensor{Data: t.Data, shape: s}
}

// SameShape reports whether t and u have identical shapes.
func (t *Tensor) SameShape(u *Tensor) bool {
	if len(t.shape) != len(u.shape) {
		return false
	}
	for i := range t.shape {
		if t.shape[i] != u.shape[i] {
			return false
		}
	}
	return true
}

// At returns the element at the given multi-index.
func (t *Tensor) At(idx ...int) float32 {
	return t.Data[t.Offset(idx...)]
}

// Set assigns the element at the given multi-index.
func (t *Tensor) Set(v float32, idx ...int) {
	t.Data[t.Offset(idx...)] = v
}

// Offset converts a multi-index into a flat offset.
func (t *Tensor) Offset(idx ...int) int {
	if len(idx) != len(t.shape) {
		panic(fmt.Sprintf("tensor: index rank %d does not match shape %v", len(idx), t.shape))
	}
	off := 0
	for i, ix := range idx {
		if ix < 0 || ix >= t.shape[i] {
			panic(fmt.Sprintf("tensor: index %v out of range for shape %v", idx, t.shape))
		}
		off = off*t.shape[i] + ix
	}
	return off
}

// Fill sets every element to v.
func (t *Tensor) Fill(v float32) {
	for i := range t.Data {
		t.Data[i] = v
	}
}

// RandN fills t with normal(0, std) values from rng.
func (t *Tensor) RandN(rng *rand.Rand, std float64) *Tensor {
	for i := range t.Data {
		t.Data[i] = float32(rng.NormFloat64() * std)
	}
	return t
}

// RandUniform fills t with uniform values in [lo, hi).
func (t *Tensor) RandUniform(rng *rand.Rand, lo, hi float64) *Tensor {
	for i := range t.Data {
		t.Data[i] = float32(lo + rng.Float64()*(hi-lo))
	}
	return t
}

// Add computes t += u elementwise.
func (t *Tensor) Add(u *Tensor) *Tensor {
	mustMatch("Add", t, u)
	for i := range t.Data {
		t.Data[i] += u.Data[i]
	}
	return t
}

// Sub computes t -= u elementwise.
func (t *Tensor) Sub(u *Tensor) *Tensor {
	mustMatch("Sub", t, u)
	for i := range t.Data {
		t.Data[i] -= u.Data[i]
	}
	return t
}

// Mul computes t *= u elementwise (Hadamard product).
func (t *Tensor) Mul(u *Tensor) *Tensor {
	mustMatch("Mul", t, u)
	for i := range t.Data {
		t.Data[i] *= u.Data[i]
	}
	return t
}

// Scale multiplies every element by s.
func (t *Tensor) Scale(s float32) *Tensor {
	for i := range t.Data {
		t.Data[i] *= s
	}
	return t
}

// AddScaled computes t += s*u elementwise.
func (t *Tensor) AddScaled(u *Tensor, s float32) *Tensor {
	mustMatch("AddScaled", t, u)
	for i := range t.Data {
		t.Data[i] += s * u.Data[i]
	}
	return t
}

// Sum returns the sum of all elements in float64 precision.
func (t *Tensor) Sum() float64 {
	var s float64
	for _, v := range t.Data {
		s += float64(v)
	}
	return s
}

// Mean returns the arithmetic mean of all elements.
func (t *Tensor) Mean() float64 {
	if len(t.Data) == 0 {
		return 0
	}
	return t.Sum() / float64(len(t.Data))
}

// Norm returns the L2 norm of all elements in float64 precision.
func (t *Tensor) Norm() float64 {
	var s float64
	for _, v := range t.Data {
		s += float64(v) * float64(v)
	}
	return math.Sqrt(s)
}

// MaxDiff returns the maximum elementwise absolute difference between t and u.
func (t *Tensor) MaxDiff(u *Tensor) float64 {
	mustMatch("MaxDiff", t, u)
	var m float64
	for i := range t.Data {
		d := math.Abs(float64(t.Data[i]) - float64(u.Data[i]))
		if d > m {
			m = d
		}
	}
	return m
}

func (t *Tensor) String() string {
	return fmt.Sprintf("Tensor%v", t.shape)
}

func mustMatch(op string, t, u *Tensor) {
	if len(t.Data) != len(u.Data) {
		panic(fmt.Sprintf("tensor: %s shape mismatch %v vs %v", op, t.shape, u.shape))
	}
}
