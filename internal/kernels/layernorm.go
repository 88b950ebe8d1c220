package kernels

import "math"

// LayerNormRef computes y = gamma*(x-mean)/sqrt(var+eps)+beta over rows of
// length c the way the unfused OpenFold baseline does: as a chain of
// elementary kernels, each making a full pass over the data and
// materializing its intermediate (mean, centered x, variance, rstd,
// normalized x), exactly the memory-bound fragmentation Table 1 blames for
// 65% of step time.
//
// x is row-major [rows, c]; the returned slice is a fresh [rows*c] buffer.
func LayerNormRef(x, gamma, beta []float32, rows, c int, eps float32, st *Stats) []float32 {
	n := rows * c
	y := make([]float32, n)

	// Kernel 1: row means.
	mean := make([]float32, rows)
	for r := 0; r < rows; r++ {
		var s float32
		for i := 0; i < c; i++ {
			s += x[r*c+i]
		}
		mean[r] = s / float32(c)
	}
	st.launch(n, rows)

	// Kernel 2: centered values, materialized.
	centered := make([]float32, n)
	for r := 0; r < rows; r++ {
		for i := 0; i < c; i++ {
			centered[r*c+i] = x[r*c+i] - mean[r]
		}
	}
	st.launch(n+rows, n)

	// Kernel 3: row variances (second full pass, the "expensive iterative
	// method" the fused kernel replaces with a single-pass computation).
	variance := make([]float32, rows)
	for r := 0; r < rows; r++ {
		var s float32
		for i := 0; i < c; i++ {
			v := centered[r*c+i]
			s += v * v
		}
		variance[r] = s / float32(c)
	}
	st.launch(n, rows)

	// Kernel 4: reciprocal std.
	rstd := make([]float32, rows)
	for r := 0; r < rows; r++ {
		rstd[r] = float32(1 / math.Sqrt(float64(variance[r]+eps)))
	}
	st.launch(rows, rows)

	// Kernel 5: normalize.
	norm := make([]float32, n)
	for r := 0; r < rows; r++ {
		for i := 0; i < c; i++ {
			norm[r*c+i] = centered[r*c+i] * rstd[r]
		}
	}
	st.launch(n+rows, n)

	// Kernel 6: scale by gamma.
	for r := 0; r < rows; r++ {
		for i := 0; i < c; i++ {
			y[r*c+i] = norm[r*c+i] * gamma[i]
		}
	}
	st.launch(n+c, n)

	// Kernel 7: shift by beta.
	for r := 0; r < rows; r++ {
		for i := 0; i < c; i++ {
			y[r*c+i] += beta[i]
		}
	}
	st.launch(n+c, n)

	return y
}

// LNCache holds the values the LayerNorm backward pass needs.
type LNCache struct {
	XHat []float32 // normalized inputs
	RStd []float32 // per-row reciprocal std
	Rows int
	C    int
}

// LayerNormFused mirrors the paper's Triton LN kernel (§3.3.1): one launch,
// one streaming pass per row computing the statistics in a single pass
// (E[x], E[x²] accumulated together) and writing the output immediately —
// each "thread block" (loop body) handles multiple rows, intermediates live
// in registers.
func LayerNormFused(x, gamma, beta []float32, rows, c int, eps float32, st *Stats) ([]float32, *LNCache) {
	n := rows * c
	y := make([]float32, n)
	cache := &LNCache{XHat: make([]float32, n), RStd: make([]float32, rows), Rows: rows, C: c}
	for r := 0; r < rows; r++ {
		row := x[r*c : (r+1)*c]
		var sum, sum2 float64
		for _, v := range row {
			sum += float64(v)
			sum2 += float64(v) * float64(v)
		}
		m := sum / float64(c)
		variance := sum2/float64(c) - m*m
		if variance < 0 {
			variance = 0
		}
		rs := float32(1 / math.Sqrt(variance+float64(eps)))
		cache.RStd[r] = rs
		out := y[r*c : (r+1)*c]
		hat := cache.XHat[r*c : (r+1)*c]
		for i, v := range row {
			h := (v - float32(m)) * rs
			hat[i] = h
			out[i] = gamma[i]*h + beta[i]
		}
	}
	st.launch(n+2*c, n)
	return y, cache
}

// LayerNormRefBackward computes input/weight/bias gradients the baseline
// way: separate kernels for dgamma, dbeta and dx, with dgamma/dbeta reduced
// by a serial column walk (standing in for the expensive atomic-based
// reduction the paper calls out).
func LayerNormRefBackward(dy, gamma []float32, cache *LNCache, st *Stats) (dx, dgamma, dbeta []float32) {
	rows, c := cache.Rows, cache.C
	n := rows * c
	dgamma = make([]float32, c)
	dbeta = make([]float32, c)
	// Kernel 1: dgamma = Σ_r dy∘xhat (full pass).
	for r := 0; r < rows; r++ {
		for i := 0; i < c; i++ {
			dgamma[i] += dy[r*c+i] * cache.XHat[r*c+i]
		}
	}
	st.launch(2*n, c)
	// Kernel 2: dbeta = Σ_r dy (second full pass over dy).
	for r := 0; r < rows; r++ {
		for i := 0; i < c; i++ {
			dbeta[i] += dy[r*c+i]
		}
	}
	st.launch(n, c)
	// Kernels 3..5: dxhat materialized, then the two row reductions, then dx.
	dxhat := make([]float32, n)
	for i := 0; i < n; i++ {
		dxhat[i] = dy[i] * gamma[i%c]
	}
	st.launch(n+c, n)
	m1 := make([]float32, rows)
	m2 := make([]float32, rows)
	for r := 0; r < rows; r++ {
		var s1, s2 float64
		for i := 0; i < c; i++ {
			s1 += float64(dxhat[r*c+i])
			s2 += float64(dxhat[r*c+i]) * float64(cache.XHat[r*c+i])
		}
		m1[r] = float32(s1 / float64(c))
		m2[r] = float32(s2 / float64(c))
	}
	st.launch(2*n, 2*rows)
	dx = make([]float32, n)
	for r := 0; r < rows; r++ {
		for i := 0; i < c; i++ {
			dx[r*c+i] = cache.RStd[r] * (dxhat[r*c+i] - m1[r] - cache.XHat[r*c+i]*m2[r])
		}
	}
	st.launch(2*n+3*rows, n)
	return dx, dgamma, dbeta
}

// LayerNormFusedBackward mirrors the paper's two-step reduction design: step
// one, each "thread block" (a block of rows) reduces its sub-region of the
// upstream gradients into an intermediate buffer while also producing dx in
// the same pass; step two, each column of the intermediate buffer is reduced
// to the final dgamma/dbeta — no atomics, two launches total.
func LayerNormFusedBackward(dy, gamma []float32, cache *LNCache, blockRows int, st *Stats) (dx, dgamma, dbeta []float32) {
	rows, c := cache.Rows, cache.C
	n := rows * c
	if blockRows <= 0 {
		blockRows = 32
	}
	nBlocks := (rows + blockRows - 1) / blockRows
	partialG := make([]float32, nBlocks*c)
	partialB := make([]float32, nBlocks*c)
	dx = make([]float32, n)

	// Launch 1: fused dx + per-block partial reductions.
	for blk := 0; blk < nBlocks; blk++ {
		lo, hi := blk*blockRows, (blk+1)*blockRows
		if hi > rows {
			hi = rows
		}
		pg := partialG[blk*c : (blk+1)*c]
		pb := partialB[blk*c : (blk+1)*c]
		for r := lo; r < hi; r++ {
			var m1, m2 float64
			base := r * c
			for i := 0; i < c; i++ {
				g := dy[base+i]
				h := cache.XHat[base+i]
				pg[i] += g * h
				pb[i] += g
				d := float64(g * gamma[i])
				m1 += d
				m2 += d * float64(h)
			}
			m1 /= float64(c)
			m2 /= float64(c)
			for i := 0; i < c; i++ {
				d := float64(dy[base+i] * gamma[i])
				dx[base+i] = cache.RStd[r] * float32(d-m1-float64(cache.XHat[base+i])*m2)
			}
		}
	}
	st.launch(2*n+c, n+2*nBlocks*c)

	// Launch 2: column reduction of the intermediate buffers.
	dgamma = make([]float32, c)
	dbeta = make([]float32, c)
	for blk := 0; blk < nBlocks; blk++ {
		for i := 0; i < c; i++ {
			dgamma[i] += partialG[blk*c+i]
			dbeta[i] += partialB[blk*c+i]
		}
	}
	st.launch(2*nBlocks*c, 2*c)
	return dx, dgamma, dbeta
}
