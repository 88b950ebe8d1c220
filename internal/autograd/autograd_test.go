package autograd

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/tensor"
)

// gradCheck compares analytic gradients with central finite differences.
// build must construct a fresh graph from the given leaf tensors and return
// the scalar loss Value; leaves are the tensors whose gradients we verify.
func gradCheck(t *testing.T, leaves []*tensor.Tensor, build func(tp *Tape, leaves []*Value) *Value) {
	t.Helper()
	tp := NewTape()
	vals := make([]*Value, len(leaves))
	for i, l := range leaves {
		vals[i] = tp.Param(l)
	}
	loss := build(tp, vals)
	if loss.X.Len() != 1 {
		t.Fatalf("loss must be scalar, got %v", loss.X.Shape())
	}
	tp.Backward(loss)

	eval := func() float64 {
		tp2 := NewTape()
		vs := make([]*Value, len(leaves))
		for i, l := range leaves {
			vs[i] = tp2.Param(l)
		}
		return float64(build(tp2, vs).X.Data[0])
	}

	const h = 1e-2
	for li, leaf := range leaves {
		g := vals[li].Grad
		if g == nil {
			t.Fatalf("leaf %d has nil grad", li)
		}
		// Check a sample of coordinates to keep the test fast.
		step := 1
		if leaf.Len() > 24 {
			step = leaf.Len() / 24
		}
		for i := 0; i < leaf.Len(); i += step {
			orig := leaf.Data[i]
			leaf.Data[i] = orig + h
			fp := eval()
			leaf.Data[i] = orig - h
			fm := eval()
			leaf.Data[i] = orig
			num := (fp - fm) / (2 * h)
			ana := float64(g.Data[i])
			diff := math.Abs(num - ana)
			scale := math.Max(1, math.Max(math.Abs(num), math.Abs(ana)))
			if diff/scale > 2e-2 {
				t.Fatalf("leaf %d elem %d: analytic %v vs numeric %v", li, i, ana, num)
			}
		}
	}
}

func randTensor(rng *rand.Rand, shape ...int) *tensor.Tensor {
	return tensor.New(shape...).RandN(rng, 0.5)
}

func TestGradAddMulScale(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	a, b := randTensor(rng, 3, 4), randTensor(rng, 3, 4)
	gradCheck(t, []*tensor.Tensor{a, b}, func(tp *Tape, vs []*Value) *Value {
		return MeanAll(Scale(Mul(Add(vs[0], vs[1]), Sub(vs[0], vs[1])), 1.5))
	})
}

func TestGradLinear(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	x, w, b := randTensor(rng, 4, 3), randTensor(rng, 3, 5), randTensor(rng, 5)
	gradCheck(t, []*tensor.Tensor{x, w, b}, func(tp *Tape, vs []*Value) *Value {
		return MeanAll(Linear(vs[0], vs[1], vs[2]))
	})
}

func TestGradLinearNoBias3D(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	x, w := randTensor(rng, 2, 3, 4), randTensor(rng, 4, 2)
	gradCheck(t, []*tensor.Tensor{x, w}, func(tp *Tape, vs []*Value) *Value {
		y := Linear(vs[0], vs[1], nil)
		if y.X.Dim(0) != 2 || y.X.Dim(1) != 3 || y.X.Dim(2) != 2 {
			t.Fatalf("Linear should keep leading shape, got %v", y.X.Shape())
		}
		return MSE(y, tensor.New(2, 3, 2))
	})
}

func TestGradSigmoidReLU(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	x := randTensor(rng, 3, 3)
	// Shift away from 0 so ReLU's kink does not break finite differences.
	for i := range x.Data {
		if v := x.Data[i]; v > -0.05 && v < 0.05 {
			x.Data[i] = 0.2
		}
	}
	gradCheck(t, []*tensor.Tensor{x}, func(tp *Tape, vs []*Value) *Value {
		return MeanAll(Mul(Sigmoid(vs[0]), ReLU(vs[0])))
	})
}

func TestGradLayerNorm(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	x := randTensor(rng, 4, 6)
	gamma := tensor.New(6)
	gamma.RandUniform(rng, 0.5, 1.5)
	beta := randTensor(rng, 6)
	gradCheck(t, []*tensor.Tensor{x, gamma, beta}, func(tp *Tape, vs []*Value) *Value {
		target := tensor.New(4, 6)
		target.Fill(0.3)
		return MSE(LayerNorm(vs[0], vs[1], vs[2], 1e-5), target)
	})
}

func TestLayerNormForwardNormalizes(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	tp := NewTape()
	x := tp.Input(tensor.New(8, 16).RandN(rng, 3))
	gamma := tensor.New(16)
	gamma.Fill(1)
	beta := tensor.New(16)
	y := LayerNorm(x, tp.Param(gamma), tp.Param(beta), 1e-5)
	for r := 0; r < 8; r++ {
		row := tensor.Row(y.X, r)
		var sum, sum2 float64
		for _, v := range row {
			sum += float64(v)
			sum2 += float64(v) * float64(v)
		}
		mean := sum / 16
		variance := sum2/16 - mean*mean
		if math.Abs(mean) > 1e-4 || math.Abs(variance-1) > 1e-2 {
			t.Fatalf("row %d: mean=%v var=%v", r, mean, variance)
		}
	}
}

func TestGradMHACore(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	const B, L, H, D = 2, 3, 2, 2
	q := randTensor(rng, B, L, H*D)
	k := randTensor(rng, B, L, H*D)
	v := randTensor(rng, B, L, H*D)
	bias := randTensor(rng, H, L, L)
	gradCheck(t, []*tensor.Tensor{q, k, v, bias}, func(tp *Tape, vs []*Value) *Value {
		target := tensor.New(B, L, H*D)
		target.Fill(0.1)
		return MSE(MHACore(vs[0], vs[1], vs[2], vs[3], nil, H), target)
	})
}

func TestMHACoreMaskZerosAttention(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	const B, L, H, D = 1, 4, 1, 3
	tp := NewTape()
	q := tp.Input(randTensor(rng, B, L, H*D))
	k := tp.Input(randTensor(rng, B, L, H*D))
	v := tp.Input(randTensor(rng, B, L, H*D))
	// Mask out position 3; make v distinctive there.
	mask := tensor.New(B, L)
	mask.Fill(1)
	mask.Set(0, 0, 3)
	v.X.Data[3*H*D] = 1e4
	out := MHACore(q, k, v, nil, mask, H)
	for _, val := range out.X.Data {
		if math.Abs(float64(val)) > 100 {
			t.Fatalf("masked position leaked into output: %v", val)
		}
	}
}

func TestMHACoreBiasShiftsAttention(t *testing.T) {
	// A huge positive bias toward key j should make output ≈ v[j].
	rng := rand.New(rand.NewSource(9))
	const B, L, H, D = 1, 3, 1, 2
	tp := NewTape()
	q := tp.Input(randTensor(rng, B, L, H*D))
	k := tp.Input(randTensor(rng, B, L, H*D))
	v := tp.Input(randTensor(rng, B, L, H*D))
	bias := tensor.New(H, L, L)
	for i := 0; i < L; i++ {
		bias.Set(50, 0, i, 1) // all queries attend to key 1
	}
	out := MHACore(q, k, v, tp.Input(bias), nil, H)
	for i := 0; i < L; i++ {
		for d := 0; d < D; d++ {
			got := out.X.At(0, i, d)
			want := v.X.At(0, 1, d)
			if math.Abs(float64(got-want)) > 1e-3 {
				t.Fatalf("bias did not dominate attention: got %v want %v", got, want)
			}
		}
	}
}

func TestGradTranspose01(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	x := randTensor(rng, 3, 4, 2)
	gradCheck(t, []*tensor.Tensor{x}, func(tp *Tape, vs []*Value) *Value {
		y := Transpose01(vs[0])
		if y.X.Dim(0) != 4 || y.X.Dim(1) != 3 {
			t.Fatalf("transpose shape %v", y.X.Shape())
		}
		w := tensor.New(4, 3, 2)
		w.RandN(rand.New(rand.NewSource(99)), 1)
		return MSE(y, w)
	})
}

func TestTranspose01Involution(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		a, b, c := 1+rng.Intn(4), 1+rng.Intn(4), 1+rng.Intn(4)
		tp := NewTape()
		x := tp.Input(tensor.New(a, b, c).RandN(rng, 1))
		y := Transpose01(Transpose01(x))
		return y.X.MaxDiff(x.X) == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestGradTriMulOutgoing(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	a, b := randTensor(rng, 3, 3, 2), randTensor(rng, 3, 3, 2)
	gradCheck(t, []*tensor.Tensor{a, b}, func(tp *Tape, vs []*Value) *Value {
		return MeanAll(TriMulOutgoing(vs[0], vs[1]))
	})
}

func TestGradTriMulIncoming(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	a, b := randTensor(rng, 3, 3, 2), randTensor(rng, 3, 3, 2)
	gradCheck(t, []*tensor.Tensor{a, b}, func(tp *Tape, vs []*Value) *Value {
		target := tensor.New(3, 3, 2)
		target.Fill(0.2)
		return MSE(TriMulIncoming(vs[0], vs[1]), target)
	})
}

func TestTriMulMatchesDirectSum(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	const R, C = 4, 3
	tp := NewTape()
	a := tp.Input(randTensor(rng, R, R, C))
	b := tp.Input(randTensor(rng, R, R, C))
	out := TriMulOutgoing(a, b)
	for i := 0; i < R; i++ {
		for j := 0; j < R; j++ {
			for c := 0; c < C; c++ {
				var want float32
				for k := 0; k < R; k++ {
					want += a.X.At(i, k, c) * b.X.At(j, k, c)
				}
				if math.Abs(float64(out.X.At(i, j, c)-want)) > 1e-4 {
					t.Fatalf("triMul mismatch at %d,%d,%d", i, j, c)
				}
			}
		}
	}
}

func TestGradOuterProductMean(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	a, b := randTensor(rng, 3, 2, 2), randTensor(rng, 3, 2, 3)
	gradCheck(t, []*tensor.Tensor{a, b}, func(tp *Tape, vs []*Value) *Value {
		return MeanAll(OuterProductMean(vs[0], vs[1]))
	})
}

func TestOuterProductMeanMatchesDirectSum(t *testing.T) {
	rng := rand.New(rand.NewSource(15))
	const S, R, Ca, Cb = 3, 2, 2, 2
	tp := NewTape()
	a := tp.Input(randTensor(rng, S, R, Ca))
	b := tp.Input(randTensor(rng, S, R, Cb))
	out := OuterProductMean(a, b)
	for i := 0; i < R; i++ {
		for j := 0; j < R; j++ {
			for p := 0; p < Ca; p++ {
				for q := 0; q < Cb; q++ {
					var want float32
					for s := 0; s < S; s++ {
						want += a.X.At(s, i, p) * b.X.At(s, j, q)
					}
					want /= S
					if math.Abs(float64(out.X.At(i, j, p*Cb+q)-want)) > 1e-4 {
						t.Fatalf("OPM mismatch at %d,%d,%d,%d", i, j, p, q)
					}
				}
			}
		}
	}
}

func TestGradMSEAndMeanAll(t *testing.T) {
	rng := rand.New(rand.NewSource(16))
	x := randTensor(rng, 5)
	target := randTensor(rng, 5)
	gradCheck(t, []*tensor.Tensor{x}, func(tp *Tape, vs []*Value) *Value {
		return MSE(vs[0], target)
	})
}

func TestTapeResetAndWatch(t *testing.T) {
	tp := NewTape()
	w := tp.Param(tensor.FromSlice([]float32{2}, 1))
	x := tp.Input(tensor.FromSlice([]float32{3}, 1))
	loss := Mul(w, x)
	tp.Backward(loss)
	if w.Grad.Data[0] != 3 {
		t.Fatalf("grad = %v, want 3", w.Grad.Data[0])
	}
	n := tp.Len()
	tp.Reset()
	if tp.Len() != 0 {
		t.Fatal("Reset must clear nodes")
	}
	tp.Watch(w)
	if w.Grad != nil {
		t.Fatal("Watch must clear stale grad")
	}
	x2 := tp.Input(tensor.FromSlice([]float32{5}, 1))
	tp.Backward(Mul(w, x2))
	if w.Grad.Data[0] != 5 {
		t.Fatalf("second grad = %v, want 5", w.Grad.Data[0])
	}
	if tp.Len() >= n+3 {
		t.Fatalf("tape grew unexpectedly: %d", tp.Len())
	}
}

func TestBackwardOnWrongTapePanics(t *testing.T) {
	tp1, tp2 := NewTape(), NewTape()
	v := tp1.Param(tensor.New(1))
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	tp2.Backward(v)
}

func TestMixedTapeOperandsPanic(t *testing.T) {
	tp1, tp2 := NewTape(), NewTape()
	a := tp1.Param(tensor.New(2))
	b := tp2.Param(tensor.New(2))
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	Add(a, b)
}

func TestGradientAccumulationAcrossTwoUses(t *testing.T) {
	// y = w*x + w*x  =>  dy/dw = 2x.
	tp := NewTape()
	w := tp.Param(tensor.FromSlice([]float32{1.5}, 1))
	x := tp.Input(tensor.FromSlice([]float32{4}, 1))
	y := Add(Mul(w, x), Mul(w, x))
	tp.Backward(y)
	if w.Grad.Data[0] != 8 {
		t.Fatalf("accumulated grad = %v, want 8", w.Grad.Data[0])
	}
}
