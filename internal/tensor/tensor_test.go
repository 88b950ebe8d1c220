package tensor

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestNewShapeAndLen(t *testing.T) {
	a := New(2, 3, 4)
	if a.Len() != 24 {
		t.Fatalf("Len = %d, want 24", a.Len())
	}
	if a.Rank() != 3 || a.Dim(0) != 2 || a.Dim(1) != 3 || a.Dim(2) != 4 {
		t.Fatalf("bad shape %v", a.Shape())
	}
	for _, v := range a.Data {
		if v != 0 {
			t.Fatal("New must zero-fill")
		}
	}
}

func TestFromSliceLengthMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for mismatched length")
		}
	}()
	FromSlice([]float32{1, 2, 3}, 2, 2)
}

func TestAtSetOffset(t *testing.T) {
	a := New(2, 3)
	a.Set(7, 1, 2)
	if a.At(1, 2) != 7 {
		t.Fatalf("At(1,2) = %v, want 7", a.At(1, 2))
	}
	if a.Offset(1, 2) != 5 {
		t.Fatalf("Offset(1,2) = %d, want 5", a.Offset(1, 2))
	}
}

func TestOffsetOutOfRangePanics(t *testing.T) {
	a := New(2, 3)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for out-of-range index")
		}
	}()
	a.At(2, 0)
}

func TestReshapeSharesData(t *testing.T) {
	a := New(2, 6)
	b := a.Reshape(3, 4)
	b.Data[0] = 42
	if a.Data[0] != 42 {
		t.Fatal("Reshape must alias the same data")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for bad reshape")
		}
	}()
	a.Reshape(5, 5)
}

func TestCloneIndependence(t *testing.T) {
	a := New(4)
	a.Fill(1)
	b := a.Clone()
	b.Data[0] = 9
	if a.Data[0] != 1 {
		t.Fatal("Clone must not alias")
	}
}

func TestElementwiseOps(t *testing.T) {
	a := FromSlice([]float32{1, 2, 3}, 3)
	b := FromSlice([]float32{4, 5, 6}, 3)
	a.Add(b)
	want := []float32{5, 7, 9}
	for i := range want {
		if a.Data[i] != want[i] {
			t.Fatalf("Add: got %v", a.Data)
		}
	}
	a.Sub(b)
	a.Mul(b)
	want = []float32{4, 10, 18}
	for i := range want {
		if a.Data[i] != want[i] {
			t.Fatalf("Mul: got %v", a.Data)
		}
	}
	a.Scale(0.5)
	if a.Data[2] != 9 {
		t.Fatalf("Scale: got %v", a.Data)
	}
	a.AddScaled(b, 2)
	if a.Data[0] != 10 {
		t.Fatalf("AddScaled: got %v", a.Data)
	}
}

func TestReductions(t *testing.T) {
	a := FromSlice([]float32{-3, 4, 0, 1}, 4)
	if a.Sum() != 2 {
		t.Fatalf("Sum = %v", a.Sum())
	}
	if a.Mean() != 0.5 {
		t.Fatalf("Mean = %v", a.Mean())
	}
	if math.Abs(a.Norm()-math.Sqrt(26)) > 1e-12 {
		t.Fatalf("Norm = %v", a.Norm())
	}
}

func TestMatMulAgainstHand(t *testing.T) {
	a := FromSlice([]float32{1, 2, 3, 4, 5, 6}, 2, 3)
	b := FromSlice([]float32{7, 8, 9, 10, 11, 12}, 3, 2)
	c := MatMul(a, b)
	want := []float32{58, 64, 139, 154}
	for i := range want {
		if c.Data[i] != want[i] {
			t.Fatalf("MatMul got %v want %v", c.Data, want)
		}
	}
}

func TestMatMulVariantsConsistent(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	a := New(5, 7).RandN(rng, 1)
	b := New(7, 3).RandN(rng, 1)
	c := MatMul(a, b)
	// A·B == A·(Bᵀ)ᵀ via MatMulT.
	ct := MatMulT(a, transpose2D(b))
	if c.MaxDiff(ct) > 1e-5 {
		t.Fatalf("MatMulT disagrees with MatMul by %v", c.MaxDiff(ct))
	}
	// A·B == (Aᵀ)ᵀ·B via TMatMul.
	c2 := TMatMul(transpose2D(a), b)
	if c.MaxDiff(c2) > 1e-5 {
		t.Fatalf("TMatMul disagrees with MatMul by %v", c.MaxDiff(c2))
	}
}

func TestMatMulShapeMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	MatMul(New(2, 3), New(4, 2))
}

// transpose2D returns Aᵀ for a rank-2 tensor: the reference the MatMul
// variants are checked against.
func transpose2D(a *Tensor) *Tensor {
	m, n := a.Dim(0), a.Dim(1)
	c := New(n, m)
	for i := 0; i < m; i++ {
		for j := 0; j < n; j++ {
			c.Data[j*m+i] = a.Data[i*n+j]
		}
	}
	return c
}

func TestTranspose2D(t *testing.T) {
	a := FromSlice([]float32{1, 2, 3, 4, 5, 6}, 2, 3)
	at := transpose2D(a)
	if at.Dim(0) != 3 || at.Dim(1) != 2 {
		t.Fatalf("shape %v", at.Shape())
	}
	if at.At(2, 1) != 6 || at.At(0, 1) != 4 {
		t.Fatalf("bad transpose %v", at.Data)
	}
}

func TestSigmoidBounds(t *testing.T) {
	a := FromSlice([]float32{-100, 0, 100}, 3)
	s := Sigmoid(a)
	if s.Data[0] > 1e-6 || math.Abs(float64(s.Data[1])-0.5) > 1e-6 || s.Data[2] < 1-1e-6 {
		t.Fatalf("sigmoid %v", s.Data)
	}
}

func TestReLU(t *testing.T) {
	a := FromSlice([]float32{-1, 0, 2}, 3)
	r := ReLU(a)
	if r.Data[0] != 0 || r.Data[1] != 0 || r.Data[2] != 2 {
		t.Fatalf("relu %v", r.Data)
	}
}

func TestEqualAndMaxDiff(t *testing.T) {
	a := FromSlice([]float32{1, 2}, 2)
	b := FromSlice([]float32{1, 2.0001}, 2)
	if d := a.MaxDiff(a.Clone()); d != 0 {
		t.Fatalf("MaxDiff of equal tensors %v", d)
	}
	if d := a.MaxDiff(b); d < 9e-5 || d > 2e-4 {
		t.Fatalf("MaxDiff %v", d)
	}
}

// Property: matmul distributes over addition, (A+B)·C = A·C + B·C.
func TestMatMulDistributiveProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		m, k, n := 1+rng.Intn(6), 1+rng.Intn(6), 1+rng.Intn(6)
		a := New(m, k).RandN(rng, 1)
		b := New(m, k).RandN(rng, 1)
		c := New(k, n).RandN(rng, 1)
		left := MatMul(a.Clone().Add(b), c)
		right := MatMul(a, c).Add(MatMul(b, c))
		return left.MaxDiff(right) < 1e-4
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestBF16RoundTripExactForSmallIntegers(t *testing.T) {
	for _, v := range []float32{0, 1, -1, 2, 0.5, -0.25, 128, 256} {
		if RoundBF16(v) != v {
			t.Fatalf("bf16 should represent %v exactly, got %v", v, RoundBF16(v))
		}
	}
}

func TestBF16RoundToNearestEven(t *testing.T) {
	// 1 + 2^-8 is exactly between bf16(1.0) and the next bf16 value
	// (mantissa step 2^-7 at exponent 0); ties round to even (1.0).
	v := float32(1) + float32(math.Pow(2, -8))
	if got := RoundBF16(v); got != 1 {
		t.Fatalf("tie should round to even 1.0, got %v", got)
	}
	// Slightly above the tie rounds up.
	v = float32(1) + float32(math.Pow(2, -8))*1.5
	want := float32(1) + float32(math.Pow(2, -7))
	if got := RoundBF16(v); got != want {
		t.Fatalf("got %v want %v", got, want)
	}
}

func TestBF16SpecialValues(t *testing.T) {
	if !math.IsInf(float64(RoundBF16(float32(math.Inf(1)))), 1) {
		t.Fatal("+inf must survive")
	}
	if !math.IsNaN(float64(RoundBF16(float32(math.NaN())))) {
		t.Fatal("NaN must survive")
	}
	// Large finite values round to the nearest bf16, not to inf, unless they
	// exceed the bf16 max (~3.39e38).
	if math.IsInf(float64(RoundBF16(3e38)), 0) {
		t.Fatal("3e38 is representable in bf16")
	}
}

func TestBF16RelativeErrorBound(t *testing.T) {
	f := func(v float32) bool {
		if math.IsNaN(float64(v)) || math.IsInf(float64(v), 0) || math.Abs(float64(v)) > 1e37 || math.Abs(float64(v)) < 1e-30 {
			v = 3.14159
		}
		r := RoundBF16(v)
		rel := math.Abs(float64(r-v)) / math.Abs(float64(v))
		return rel <= 1.0/256.0 // half ulp at 8-bit mantissa precision (7 explicit bits)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestQuantizeBF16InPlace(t *testing.T) {
	a := FromSlice([]float32{1.00001, 2.5, -3.14159}, 3)
	QuantizeBF16(a)
	for _, v := range a.Data {
		if RoundBF16(v) != v {
			t.Fatalf("value %v is not a bf16 fixed point", v)
		}
	}
}
