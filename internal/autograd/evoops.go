package autograd

import (
	"fmt"
	"math"

	"repro/internal/kernels"
	"repro/internal/tensor"
)

// LayerNorm normalizes x over its last dimension and applies a learned
// affine transform: y = gamma * (x - mean)/sqrt(var + eps) + beta.
// gamma and beta are rank-1 Values of length C = x.Dim(last).
//
// It runs the paper's fused Triton LN kernels (§3.3.1), forward and
// backward, from package kernels: single-pass statistics, E[x] and E[x²]
// accumulated together, and the backward's dx fused with its row
// reductions. The backward runs all rows as one block, so its dgamma and
// dbeta are this node's column sums, added to the tape's gradients.
func LayerNorm(x, gamma, beta *Value, eps float32) *Value {
	t := sameTape(x, gamma, beta)
	c := x.X.Dim(x.X.Rank() - 1)
	rows := x.X.Len() / c
	var st kernels.Stats // launch accounting, which the tape does not report
	y, cache := kernels.LayerNormFused(x.X.Data, gamma.X.Data, beta.X.Data, rows, c, eps, &st)
	out := t.newResult(tensor.FromSlice(y, x.X.Shape()...), x, gamma, beta)
	out.back = func() {
		dx, dgamma, dbeta := kernels.LayerNormFusedBackward(out.Grad.Data, gamma.X.Data, cache, rows, &st)
		x.accum(tensor.FromSlice(dx, x.X.Shape()...))
		gamma.accum(tensor.FromSlice(dgamma, gamma.X.Shape()...))
		beta.accum(tensor.FromSlice(dbeta, beta.X.Shape()...))
	}
	return out
}

// MHACore computes multi-head scaled-dot-product attention with an optional
// additive bias on the logits — the AlphaFold MHA variant of Figure 6 where
// a pair-representation bias is added before the softmax. This single node
// mirrors the paper's fused FlashAttention-style kernel boundary: the four
// projection GEMMs, the sigmoid gate and the output GEMM stay outside as
// separate ops (they are what §3.3.1 batches / fuses separately).
//
// Shapes: q, k, v are [B, L, H*D]; bias (optional) is [H, Lq, Lk] broadcast
// over B; mask (optional, constant) is [B, Lk] with 1=keep, 0=mask out.
// The result is [B, Lq, H*D].
func MHACore(q, k, v *Value, bias *Value, mask *tensor.Tensor, nHeads int) *Value {
	t := sameTape(q, k, v)
	B, Lq, E := q.X.Dim(0), q.X.Dim(1), q.X.Dim(2)
	Lk := k.X.Dim(1)
	if E%nHeads != 0 {
		panic(fmt.Sprintf("autograd: embed dim %d not divisible by %d heads", E, nHeads))
	}
	D := E / nHeads
	scale := float32(1 / math.Sqrt(float64(D)))
	if bias != nil {
		sameTape(q, bias)
		if bias.X.Dim(0) != nHeads || bias.X.Dim(1) != Lq || bias.X.Dim(2) != Lk {
			panic(fmt.Sprintf("autograd: bias shape %v, want [%d %d %d]", bias.X.Shape(), nHeads, Lq, Lk))
		}
	}

	y := tensor.New(B, Lq, E)
	// probs caches softmax outputs per (b,h): [B, H, Lq, Lk].
	probs := tensor.New(B, nHeads, Lq, Lk)

	row := make([]float32, Lk)
	for b := 0; b < B; b++ {
		for h := 0; h < nHeads; h++ {
			for i := 0; i < Lq; i++ {
				qRow := q.X.Data[(b*Lq+i)*E+h*D : (b*Lq+i)*E+(h+1)*D]
				for j := 0; j < Lk; j++ {
					kRow := k.X.Data[(b*Lk+j)*E+h*D : (b*Lk+j)*E+(h+1)*D]
					var s float32
					for d := 0; d < D; d++ {
						s += qRow[d] * kRow[d]
					}
					s *= scale
					if bias != nil {
						s += bias.X.Data[(h*Lq+i)*Lk+j]
					}
					if mask != nil && mask.Data[b*Lk+j] == 0 {
						s = -1e9
					}
					row[j] = s
				}
				softmaxInto(row)
				pOff := ((b*nHeads+h)*Lq + i) * Lk
				copy(probs.Data[pOff:pOff+Lk], row)
				oRow := y.Data[(b*Lq+i)*E+h*D : (b*Lq+i)*E+(h+1)*D]
				for j := 0; j < Lk; j++ {
					p := row[j]
					if p == 0 {
						continue
					}
					vRow := v.X.Data[(b*Lk+j)*E+h*D : (b*Lk+j)*E+(h+1)*D]
					for d := 0; d < D; d++ {
						oRow[d] += p * vRow[d]
					}
				}
			}
		}
	}

	parents := []*Value{q, k, v}
	if bias != nil {
		parents = append(parents, bias)
	}
	out := t.newResult(y, parents...)
	out.back = func() {
		dS := make([]float32, Lk)
		for b := 0; b < B; b++ {
			for h := 0; h < nHeads; h++ {
				for i := 0; i < Lq; i++ {
					gRow := out.Grad.Data[(b*Lq+i)*E+h*D : (b*Lq+i)*E+(h+1)*D]
					pRow := probs.Data[((b*nHeads+h)*Lq+i)*Lk : ((b*nHeads+h)*Lq+i+1)*Lk]
					// dP[j] = gRow · V[j]; dS = P ∘ (dP - Σ dP∘P)
					var dot float32
					for j := 0; j < Lk; j++ {
						vRow := v.X.Data[(b*Lk+j)*E+h*D : (b*Lk+j)*E+(h+1)*D]
						var dp float32
						for d := 0; d < D; d++ {
							dp += gRow[d] * vRow[d]
						}
						dS[j] = dp
						dot += dp * pRow[j]
					}
					for j := 0; j < Lk; j++ {
						dS[j] = pRow[j] * (dS[j] - dot)
					}
					if bias != nil && bias.requires {
						bg := bias.ensureGrad()
						for j := 0; j < Lk; j++ {
							bg.Data[(h*Lq+i)*Lk+j] += dS[j]
						}
					}
					if v.requires {
						vg := v.ensureGrad()
						for j := 0; j < Lk; j++ {
							p := pRow[j]
							if p == 0 {
								continue
							}
							vgRow := vg.Data[(b*Lk+j)*E+h*D : (b*Lk+j)*E+(h+1)*D]
							for d := 0; d < D; d++ {
								vgRow[d] += p * gRow[d]
							}
						}
					}
					qRow := q.X.Data[(b*Lq+i)*E+h*D : (b*Lq+i)*E+(h+1)*D]
					if q.requires {
						qgRow := q.ensureGrad().Data[(b*Lq+i)*E+h*D : (b*Lq+i)*E+(h+1)*D]
						for j := 0; j < Lk; j++ {
							ds := dS[j] * scale
							if ds == 0 {
								continue
							}
							kRow := k.X.Data[(b*Lk+j)*E+h*D : (b*Lk+j)*E+(h+1)*D]
							for d := 0; d < D; d++ {
								qgRow[d] += ds * kRow[d]
							}
						}
					}
					if k.requires {
						kg := k.ensureGrad()
						for j := 0; j < Lk; j++ {
							ds := dS[j] * scale
							if ds == 0 {
								continue
							}
							kgRow := kg.Data[(b*Lk+j)*E+h*D : (b*Lk+j)*E+(h+1)*D]
							for d := 0; d < D; d++ {
								kgRow[d] += ds * qRow[d]
							}
						}
					}
				}
			}
		}
	}
	return out
}

func softmaxInto(row []float32) {
	mx := float32(math.Inf(-1))
	for _, v := range row {
		if v > mx {
			mx = v
		}
	}
	var sum float32
	for i, v := range row {
		e := float32(math.Exp(float64(v - mx)))
		row[i] = e
		sum += e
	}
	inv := 1 / sum
	for i := range row {
		row[i] *= inv
	}
}

// TriMulOutgoing computes the "triangle multiplicative update using outgoing
// edges": out[i,j,c] = Σ_k a[i,k,c] * b[j,k,c] for a, b of shape [R,R,C].
func TriMulOutgoing(a, b *Value) *Value { return triMul(a, b, true) }

// TriMulIncoming computes the update using incoming edges:
// out[i,j,c] = Σ_k a[k,i,c] * b[k,j,c].
func TriMulIncoming(a, b *Value) *Value { return triMul(a, b, false) }

func triMul(a, b *Value, outgoing bool) *Value {
	t := sameTape(a, b)
	R, R2, C := a.X.Dim(0), a.X.Dim(1), a.X.Dim(2)
	if R != R2 || !a.X.SameShape(b.X) {
		panic(fmt.Sprintf("autograd: triMul wants square pair tensors, got %v and %v", a.X.Shape(), b.X.Shape()))
	}
	idx := func(i, k int) int {
		if outgoing {
			return (i*R + k) * C
		}
		return (k*R + i) * C
	}
	y := tensor.New(R, R, C)
	for i := 0; i < R; i++ {
		for j := 0; j < R; j++ {
			o := y.Data[(i*R+j)*C : (i*R+j+1)*C]
			for k := 0; k < R; k++ {
				av := a.X.Data[idx(i, k) : idx(i, k)+C]
				bv := b.X.Data[idx(j, k) : idx(j, k)+C]
				for c := 0; c < C; c++ {
					o[c] += av[c] * bv[c]
				}
			}
		}
	}
	out := t.newResult(y, a, b)
	out.back = func() {
		for i := 0; i < R; i++ {
			for j := 0; j < R; j++ {
				g := out.Grad.Data[(i*R+j)*C : (i*R+j+1)*C]
				for k := 0; k < R; k++ {
					if a.requires {
						ag := a.ensureGrad().Data[idx(i, k) : idx(i, k)+C]
						bv := b.X.Data[idx(j, k) : idx(j, k)+C]
						for c := 0; c < C; c++ {
							ag[c] += g[c] * bv[c]
						}
					}
					if b.requires {
						bg := b.ensureGrad().Data[idx(j, k) : idx(j, k)+C]
						av := a.X.Data[idx(i, k) : idx(i, k)+C]
						for c := 0; c < C; c++ {
							bg[c] += g[c] * av[c]
						}
					}
				}
			}
		}
	}
	return out
}

// OuterProductMean computes the Evoformer op that communicates information
// from the MSA representation into the pair representation:
// out[i,j, a*Cb+b] = (1/S) Σ_s A[s,i,a] * B[s,j,b]
// for A of shape [S,R,Ca] and B of shape [S,R,Cb].
func OuterProductMean(a, b *Value) *Value {
	t := sameTape(a, b)
	S, R, Ca := a.X.Dim(0), a.X.Dim(1), a.X.Dim(2)
	S2, R2, Cb := b.X.Dim(0), b.X.Dim(1), b.X.Dim(2)
	if S != S2 || R != R2 {
		panic(fmt.Sprintf("autograd: OuterProductMean shapes %v vs %v", a.X.Shape(), b.X.Shape()))
	}
	inv := 1 / float32(S)
	y := tensor.New(R, R, Ca*Cb)
	for s := 0; s < S; s++ {
		for i := 0; i < R; i++ {
			av := a.X.Data[(s*R+i)*Ca : (s*R+i+1)*Ca]
			for j := 0; j < R; j++ {
				bv := b.X.Data[(s*R+j)*Cb : (s*R+j+1)*Cb]
				o := y.Data[(i*R+j)*Ca*Cb : (i*R+j+1)*Ca*Cb]
				for p := 0; p < Ca; p++ {
					ap := av[p] * inv
					if ap == 0 {
						continue
					}
					for q := 0; q < Cb; q++ {
						o[p*Cb+q] += ap * bv[q]
					}
				}
			}
		}
	}
	out := t.newResult(y, a, b)
	out.back = func() {
		for s := 0; s < S; s++ {
			for i := 0; i < R; i++ {
				av := a.X.Data[(s*R+i)*Ca : (s*R+i+1)*Ca]
				var ag []float32
				if a.requires {
					ag = a.ensureGrad().Data[(s*R+i)*Ca : (s*R+i+1)*Ca]
				}
				for j := 0; j < R; j++ {
					bv := b.X.Data[(s*R+j)*Cb : (s*R+j+1)*Cb]
					g := out.Grad.Data[(i*R+j)*Ca*Cb : (i*R+j+1)*Ca*Cb]
					if ag != nil {
						for p := 0; p < Ca; p++ {
							var sum float32
							for q := 0; q < Cb; q++ {
								sum += g[p*Cb+q] * bv[q]
							}
							ag[p] += sum * inv
						}
					}
					if b.requires {
						bg := b.ensureGrad().Data[(s*R+j)*Cb : (s*R+j+1)*Cb]
						for p := 0; p < Ca; p++ {
							ap := av[p] * inv
							if ap == 0 {
								continue
							}
							for q := 0; q < Cb; q++ {
								bg[q] += g[p*Cb+q] * ap
							}
						}
					}
				}
			}
		}
	}
	return out
}
