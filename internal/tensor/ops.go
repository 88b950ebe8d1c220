package tensor

import (
	"fmt"
	"math"
)

// MatMul computes C = A·B for 2-D tensors A[m,k] and B[k,n].
// The inner loops are ordered i-k-j so the innermost loop streams both B and
// C rows, which matters for the kernel benchmarks built on top of this.
func MatMul(a, b *Tensor) *Tensor {
	if a.Rank() != 2 || b.Rank() != 2 {
		panic(fmt.Sprintf("tensor: MatMul requires rank-2 operands, got %v × %v", a.Shape(), b.Shape()))
	}
	m, k := a.Dim(0), a.Dim(1)
	k2, n := b.Dim(0), b.Dim(1)
	if k != k2 {
		panic(fmt.Sprintf("tensor: MatMul inner dimension mismatch %v × %v", a.Shape(), b.Shape()))
	}
	c := New(m, n)
	MatMulInto(c, a, b)
	return c
}

// MatMulInto computes c = a·b, writing into a preallocated output.
func MatMulInto(c, a, b *Tensor) {
	m, k := a.Dim(0), a.Dim(1)
	n := b.Dim(1)
	for i := 0; i < m; i++ {
		ci := c.Data[i*n : (i+1)*n]
		for j := range ci {
			ci[j] = 0
		}
		ai := a.Data[i*k : (i+1)*k]
		for p := 0; p < k; p++ {
			av := ai[p]
			if av == 0 {
				continue
			}
			bp := b.Data[p*n : (p+1)*n]
			for j := 0; j < n; j++ {
				ci[j] += av * bp[j]
			}
		}
	}
}

// MatMulT computes C = A·Bᵀ for A[m,k], B[n,k].
func MatMulT(a, b *Tensor) *Tensor {
	m, k := a.Dim(0), a.Dim(1)
	n, k2 := b.Dim(0), b.Dim(1)
	if k != k2 {
		panic(fmt.Sprintf("tensor: MatMulT inner dimension mismatch %v × %v", a.Shape(), b.Shape()))
	}
	c := New(m, n)
	for i := 0; i < m; i++ {
		ai := a.Data[i*k : (i+1)*k]
		ci := c.Data[i*n : (i+1)*n]
		for j := 0; j < n; j++ {
			bj := b.Data[j*k : (j+1)*k]
			var s float32
			for p := 0; p < k; p++ {
				s += ai[p] * bj[p]
			}
			ci[j] = s
		}
	}
	return c
}

// TMatMul computes C = Aᵀ·B for A[k,m], B[k,n].
func TMatMul(a, b *Tensor) *Tensor {
	k, m := a.Dim(0), a.Dim(1)
	k2, n := b.Dim(0), b.Dim(1)
	if k != k2 {
		panic(fmt.Sprintf("tensor: TMatMul inner dimension mismatch %v × %v", a.Shape(), b.Shape()))
	}
	c := New(m, n)
	for p := 0; p < k; p++ {
		ap := a.Data[p*m : (p+1)*m]
		bp := b.Data[p*n : (p+1)*n]
		for i := 0; i < m; i++ {
			av := ap[i]
			if av == 0 {
				continue
			}
			ci := c.Data[i*n : (i+1)*n]
			for j := 0; j < n; j++ {
				ci[j] += av * bp[j]
			}
		}
	}
	return c
}

// Sigmoid applies the logistic function elementwise, returning a new tensor.
func Sigmoid(a *Tensor) *Tensor {
	out := New(a.Shape()...)
	for i, v := range a.Data {
		out.Data[i] = float32(1 / (1 + math.Exp(-float64(v))))
	}
	return out
}

// ReLU applies max(0, x) elementwise, returning a new tensor.
func ReLU(a *Tensor) *Tensor {
	out := New(a.Shape()...)
	for i, v := range a.Data {
		if v > 0 {
			out.Data[i] = v
		}
	}
	return out
}

// Row returns the i-th row view of a rank-2 tensor (no copy).
func Row(a *Tensor, i int) []float32 {
	n := a.Dim(a.Rank() - 1)
	return a.Data[i*n : (i+1)*n]
}
