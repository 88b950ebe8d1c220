package kernels

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func randSlice(rng *rand.Rand, n int) []float32 {
	s := make([]float32, n)
	for i := range s {
		s[i] = float32(rng.NormFloat64())
	}
	return s
}

func maxDiff(a, b []float32) float64 {
	var m float64
	for i := range a {
		d := math.Abs(float64(a[i]) - float64(b[i]))
		if d > m {
			m = d
		}
	}
	return m
}

func TestLayerNormFusedMatchesRef(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	const rows, c = 37, 128
	x := randSlice(rng, rows*c)
	gamma := randSlice(rng, c)
	beta := randSlice(rng, c)
	var stRef, stFused Stats
	yRef := LayerNormRef(x, gamma, beta, rows, c, 1e-5, &stRef)
	yFused, _ := LayerNormFused(x, gamma, beta, rows, c, 1e-5, &stFused)
	if d := maxDiff(yRef, yFused); d > 1e-4 {
		t.Fatalf("fused LN differs from reference by %v", d)
	}
	if stFused.Launches >= stRef.Launches {
		t.Fatalf("fused LN should launch fewer kernels: %d vs %d", stFused.Launches, stRef.Launches)
	}
	if stFused.Bytes() >= stRef.Bytes() {
		t.Fatalf("fused LN should move fewer bytes: %d vs %d", stFused.Bytes(), stRef.Bytes())
	}
}

func TestLayerNormBackwardFusedMatchesRef(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	const rows, c = 29, 64
	x := randSlice(rng, rows*c)
	gamma := randSlice(rng, c)
	beta := randSlice(rng, c)
	dy := randSlice(rng, rows*c)
	var st Stats
	_, cache := LayerNormFused(x, gamma, beta, rows, c, 1e-5, &st)
	var stRef, stFused Stats
	dxR, dgR, dbR := LayerNormRefBackward(dy, gamma, cache, &stRef)
	dxF, dgF, dbF := LayerNormFusedBackward(dy, gamma, cache, 8, &stFused)
	if d := maxDiff(dxR, dxF); d > 1e-3 {
		t.Fatalf("dx differs by %v", d)
	}
	if d := maxDiff(dgR, dgF); d > 1e-3 {
		t.Fatalf("dgamma differs by %v", d)
	}
	if d := maxDiff(dbR, dbF); d > 1e-3 {
		t.Fatalf("dbeta differs by %v", d)
	}
	if stFused.Launches != 2 {
		t.Fatalf("fused LN backward should be 2 launches, got %d", stFused.Launches)
	}
	if stRef.Launches <= stFused.Launches {
		t.Fatalf("reference backward should launch more: %d vs %d", stRef.Launches, stFused.Launches)
	}
}

func TestLayerNormFusedBackwardBlockSizeInvariance(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	const rows, c = 50, 32
	x := randSlice(rng, rows*c)
	gamma := randSlice(rng, c)
	beta := randSlice(rng, c)
	dy := randSlice(rng, rows*c)
	var st Stats
	_, cache := LayerNormFused(x, gamma, beta, rows, c, 1e-5, &st)
	dx1, dg1, db1 := LayerNormFusedBackward(dy, gamma, cache, 1, &st)
	for _, blk := range []int{3, 7, 16, 50, 1000} {
		dx2, dg2, db2 := LayerNormFusedBackward(dy, gamma, cache, blk, &st)
		if maxDiff(dx1, dx2) > 1e-4 || maxDiff(dg1, dg2) > 1e-3 || maxDiff(db1, db2) > 1e-3 {
			t.Fatalf("block size %d changes the result", blk)
		}
	}
}

func TestLayerNormNormalizesProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		rows := 1 + rng.Intn(8)
		c := 2 + rng.Intn(62)
		x := randSlice(rng, rows*c)
		gamma := make([]float32, c)
		beta := make([]float32, c)
		for i := range gamma {
			gamma[i] = 1
		}
		var st Stats
		y, _ := LayerNormFused(x, gamma, beta, rows, c, 1e-5, &st)
		for r := 0; r < rows; r++ {
			var sum float64
			for i := 0; i < c; i++ {
				sum += float64(y[r*c+i])
			}
			if math.Abs(sum/float64(c)) > 1e-3 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func mhaInputs(rng *rand.Rand, p MHAParams) (q, k, v, g, bias, mask []float32) {
	E := p.H * p.D
	q = randSlice(rng, p.B*p.L*E)
	k = randSlice(rng, p.B*p.L*E)
	v = randSlice(rng, p.B*p.L*E)
	g = randSlice(rng, p.B*p.L*E)
	bias = randSlice(rng, p.H*p.L*p.L)
	mask = make([]float32, p.B*p.L)
	for i := range mask {
		mask[i] = 1
	}
	return
}

func TestMHAFusedMatchesRef(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	p := MHAParams{B: 3, L: 17, H: 4, D: 8}
	q, k, v, g, bias, mask := mhaInputs(rng, p)
	mask[5] = 0 // mask one key position in batch 0
	var stRef, stFused Stats
	yRef := MHARef(p, q, k, v, g, bias, mask, &stRef)
	yFused := MHAFused(p, q, k, v, g, bias, mask, 8, &stFused)
	if d := maxDiff(yRef, yFused); d > 1e-4 {
		t.Fatalf("fused MHA differs from reference by %v", d)
	}
	if stFused.Launches != 1 {
		t.Fatalf("fused MHA must be a single launch, got %d", stFused.Launches)
	}
	if stRef.Launches < 6 {
		t.Fatalf("reference MHA should be many launches, got %d", stRef.Launches)
	}
	if stFused.Bytes() >= stRef.Bytes() {
		t.Fatalf("fused MHA should move fewer bytes: %d vs %d", stFused.Bytes(), stRef.Bytes())
	}
}

func TestMHAFusedTileSizeInvariance(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	p := MHAParams{B: 2, L: 23, H: 2, D: 4}
	q, k, v, g, bias, mask := mhaInputs(rng, p)
	var st Stats
	base := MHAFused(p, q, k, v, g, bias, mask, 1, &st)
	for _, tile := range []int{2, 5, 8, 23, 64} {
		y := MHAFused(p, q, k, v, g, bias, mask, tile, &st)
		if d := maxDiff(base, y); d > 1e-4 {
			t.Fatalf("tile %d changes result by %v (online softmax broken)", tile, d)
		}
	}
}

func TestMHANoMask(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	p := MHAParams{B: 1, L: 9, H: 2, D: 4}
	q, k, v, g, bias, _ := mhaInputs(rng, p)
	var st1, st2 Stats
	yRef := MHARef(p, q, k, v, g, bias, nil, &st1)
	yFused := MHAFused(p, q, k, v, g, bias, nil, 4, &st2)
	if d := maxDiff(yRef, yFused); d > 1e-4 {
		t.Fatalf("no-mask mismatch %v", d)
	}
}

func TestProjectBatchedMatchesSeparate(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	const n, k, m = 33, 24, 16
	w := ProjectionWeights{
		WQ: randSlice(rng, k*m), WK: randSlice(rng, k*m),
		WV: randSlice(rng, k*m), WG: randSlice(rng, k*m),
		K: k, M: m,
	}
	x := randSlice(rng, n*k)
	var stS, stB Stats
	q1, k1, v1, g1 := ProjectSeparate(x, n, w, &stS)
	q2, k2, v2, g2 := ProjectBatched(x, n, w, &stB)
	for _, pair := range [][2][]float32{{q1, q2}, {k1, k2}, {v1, v2}, {g1, g2}} {
		if d := maxDiff(pair[0], pair[1]); d > 1e-4 {
			t.Fatalf("batched projection differs by %v", d)
		}
	}
	if stB.Launches != 1 || stS.Launches != 4 {
		t.Fatalf("launches: batched %d (want 1), separate %d (want 4)", stB.Launches, stS.Launches)
	}
	if stB.BytesRead >= stS.BytesRead {
		t.Fatalf("batched should read less: %d vs %d", stB.BytesRead, stS.BytesRead)
	}
}

func makeParams(rng *rand.Rand, sizes []int) []ParamTensor {
	ps := make([]ParamTensor, len(sizes))
	for i, n := range sizes {
		ps[i] = ParamTensor{
			P: randSlice(rng, n), G: randSlice(rng, n),
			M: randSlice(rng, n), V: make([]float32, n),
			SWA: randSlice(rng, n),
		}
		for j := range ps[i].V {
			ps[i].V[j] = float32(math.Abs(rng.NormFloat64())) * 0.01
		}
	}
	return ps
}

func cloneParams(ps []ParamTensor) []ParamTensor {
	out := make([]ParamTensor, len(ps))
	for i, p := range ps {
		out[i] = ParamTensor{
			P: append([]float32(nil), p.P...), G: append([]float32(nil), p.G...),
			M: append([]float32(nil), p.M...), V: append([]float32(nil), p.V...),
			SWA: append([]float32(nil), p.SWA...),
		}
	}
	return out
}

func TestAdamSWAFusedMatchesRef(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	sizes := []int{17, 256, 3, 1024, 64}
	a := makeParams(rng, sizes)
	b := cloneParams(a)
	cfg := DefaultAdamConfig(7)
	var stRef, stFused Stats
	AdamSWARef(a, cfg, 1.0, &stRef)
	AdamSWAFused(b, cfg, 1.0, nil, &stFused)
	for i := range a {
		if d := maxDiff(a[i].P, b[i].P); d > 1e-5 {
			t.Fatalf("param %d differs by %v", i, d)
		}
		if d := maxDiff(a[i].SWA, b[i].SWA); d > 1e-5 {
			t.Fatalf("swa %d differs by %v", i, d)
		}
		if d := maxDiff(a[i].M, b[i].M); d > 1e-5 {
			t.Fatalf("m %d differs by %v", i, d)
		}
		if d := maxDiff(a[i].V, b[i].V); d > 1e-5 {
			t.Fatalf("v %d differs by %v", i, d)
		}
	}
	if stFused.Launches >= stRef.Launches {
		t.Fatalf("fused optimizer should launch fewer kernels: %d vs %d", stFused.Launches, stRef.Launches)
	}
}

func TestAdamSWARefLaunchesScaleWithTensorCount(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	cfg := DefaultAdamConfig(1)
	var stSmall, stBig Stats
	AdamSWARef(makeParams(rng, []int{8, 8}), cfg, 1, &stSmall)
	AdamSWARef(makeParams(rng, make([]int, 40, 40)), cfg, 1, &stBig) // zero-size ok for launch count
	if stBig.Launches <= stSmall.Launches {
		t.Fatal("reference launches must grow with tensor count")
	}
	var stFusedBig Stats
	AdamSWAFused(makeParams(rng, make([]int, 40, 40)), cfg, 1, nil, &stFusedBig)
	if stFusedBig.Launches > 3 {
		t.Fatalf("fused launches must not grow with tensor count, got %d", stFusedBig.Launches)
	}
}

func TestGradNormBucketedMatchesRef(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	ps := makeParams(rng, []int{100, 3, 777, 12})
	var st Stats
	nRef := GradNormRef(ps, &st)
	buckets := PackBuckets(ps, 1<<20, &st)
	var stB Stats
	nB := GradNormBucketed(buckets, &stB)
	if math.Abs(nRef-nB) > 1e-4*math.Max(1, nRef) {
		t.Fatalf("bucketed norm %v vs ref %v", nB, nRef)
	}
	if stB.Launches >= st.Launches {
		t.Fatalf("bucketed norm should need fewer launches")
	}
}

func TestPackBucketsPreservesAllElements(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		nTensors := 1 + rng.Intn(6)
		sizes := make([]int, nTensors)
		total := 0
		for i := range sizes {
			sizes[i] = 1 + rng.Intn(50)
			total += sizes[i]
		}
		ps := makeParams(rng, sizes)
		var st Stats
		buckets := PackBuckets(ps, 32, &st)
		var got int
		var sumB, sumP float64
		for _, b := range buckets {
			got += len(b.Flat)
			for _, v := range b.Flat {
				sumB += float64(v)
			}
		}
		for _, p := range ps {
			for _, g := range p.G {
				sumP += float64(g)
			}
		}
		return got == total && math.Abs(sumB-sumP) < 1e-3
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestClipScale(t *testing.T) {
	if ClipScale(0.5, 1) != 1 {
		t.Fatal("norm below threshold must not scale")
	}
	s := ClipScale(10, 1)
	if s <= 0 || s >= 0.2 {
		t.Fatalf("clip scale %v out of range", s)
	}
	if ClipScale(10, 0) != 1 {
		t.Fatal("maxNorm<=0 disables clipping")
	}
}

func TestClipActuallyBoundsNorm(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	ps := makeParams(rng, []int{300})
	for i := range ps[0].G {
		ps[0].G[i] *= 50 // make norm huge
	}
	var st Stats
	cfg := DefaultAdamConfig(1)
	AdamSWAFused(ps, cfg, 1.0, nil, &st)
	var s float64
	for _, g := range ps[0].G {
		s += float64(g) * float64(g)
	}
	if math.Sqrt(s) > 1.01 {
		t.Fatalf("post-clip norm %v exceeds threshold", math.Sqrt(s))
	}
}

func TestStatsAccumulate(t *testing.T) {
	var st Stats
	st.launch(10, 5)
	st.launch(2, 2)
	if st.Launches != 2 || st.BytesRead != 48 || st.BytesWritten != 28 || st.Bytes() != 76 {
		t.Fatalf("stats %+v", st)
	}
}
