package workload

import (
	"fmt"
	"sync"

	"repro/internal/comm"
	"repro/internal/model"
)

// builder accumulates the census. All emitters take per-pass quantities and
// multiply by mult (stack depth × forward-equivalent passes).
type builder struct {
	groups []Group
	opt    Options
	bpe    float64
}

func (b *builder) emit(g Group) { b.groups = append(b.groups, g) }

// ParamTensors is the number of trainable tensors ("over four thousand
// gradient tensors", §3.3.1).
const ParamTensors = 4400

// ParamCount is the AlphaFold parameter count (97M).
const ParamCount = 97e6

// fullCensus memoizes Full per Options value. Options is comparable and
// its ten fields are exactly what a census depends on, so the value itself
// is the key.
var fullCensus sync.Map // Options -> *fullEntry

type fullEntry struct {
	once sync.Once
	prog *Program
}

// Full returns the census of the paper-scale model (model.FullConfig) under
// o, built once per distinct Options value for the life of the process. A
// census is a pure derivation of the fixed model config, so every caller
// shares the one *Program; callers must treat it as read-only.
func Full(o Options) *Program {
	e, ok := fullCensus.Load(o)
	if !ok {
		e, _ = fullCensus.LoadOrStore(o, new(fullEntry))
	}
	ent := e.(*fullEntry)
	ent.once.Do(func() { ent.prog = Census(model.FullConfig(), o) })
	return ent.prog
}

// Census builds the full step Program for the given model geometry and
// optimization options. Geometry should be model.FullConfig() for the
// paper-scale experiments; smaller geometries scale everything down
// consistently.
func Census(cfg model.Config, o Options) *Program {
	b := &builder{opt: o, bpe: o.bytesPerElem()}
	passes := o.passes()

	S := cfg.MSADepth
	R := cfg.Crop
	CM := float64(cfg.CM)
	CZ := float64(cfg.CZ)
	H := cfg.Heads

	// --- Input embedding + data handling (serial: DAP cannot split it) ---
	embedElems := float64(S*R)*CM + float64(R*R)*CZ
	b.emit(Group{Name: "embed/gemm", Cat: CatMath, Calls: 10 * passes, Serial: true,
		Flops: 2 * embedElems * 64 * float64(passes), Bytes: 2 * embedElems * b.bpe * float64(passes)})
	b.emit(Group{Name: "embed/elemwise", Cat: CatMem, Calls: 60 * passes, Serial: true, Fusable: true,
		Bytes: 4 * embedElems * b.bpe * float64(passes)})
	b.emit(Group{Name: "embed/copies", Cat: CatMemOp, Calls: 40 * passes, Serial: true,
		Bytes: 2 * embedElems * b.bpe * float64(passes)})

	// --- Template pair stack (pair-only blocks) ---
	for blk := 0; blk < cfg.TemplateBlocks; blk++ {
		b.pairBlock(fmt.Sprintf("template.%d", blk), R, CZ, float64(cfg.CTri), H, passes)
	}

	// --- Extra MSA stack (wide-S, narrow-channel blocks) ---
	for blk := 0; blk < cfg.ExtraBlocks; blk++ {
		b.evoBlock(fmt.Sprintf("extra.%d", blk), cfg.ExtraMSA, R, float64(cfg.CME), CZ, float64(cfg.CTri), float64(cfg.COPM), H, passes)
	}

	// --- Evoformer stack ---
	for blk := 0; blk < cfg.EvoBlocks; blk++ {
		b.evoBlock(fmt.Sprintf("evo.%d", blk), S, R, CM, CZ, float64(cfg.CTri), float64(cfg.COPM), H, passes)
	}

	// --- Structure module (serial: no DAP axis) ---
	sElems := float64(R) * float64(cfg.CS)
	for l := 0; l < cfg.StructLayers; l++ {
		name := fmt.Sprintf("struct.%d", l)
		b.emit(Group{Name: name + "/gemm", Cat: CatMath, Calls: 6 * passes, Serial: true,
			Flops: 12 * sElems * float64(cfg.CS) * float64(passes), Bytes: 3 * sElems * b.bpe * float64(passes)})
		miscCalls, miscBytes := 20, 8.0
		if o.TorchCompile {
			// torch.compile "significantly accelerated serial modules such
			// as the Structure Module" (§3.3.2).
			miscCalls, miscBytes = 6, 3.5
		}
		b.emit(Group{Name: name + "/elemwise", Cat: CatMem, Calls: miscCalls * passes, Serial: true, Fusable: true,
			Bytes: miscBytes * sElems * b.bpe * float64(passes)})
		b.emit(Group{Name: name + "/copies", Cat: CatMemOp, Calls: 6 * passes, Serial: true,
			Bytes: 2 * sElems * b.bpe * float64(passes)})
	}

	// --- Optimizer: gradient clipping + Adam + SWA (per-step, serial) ---
	p := &Program{Groups: b.groups}
	p.GradBytes = ParamCount * o.gradBytesPerParam()
	optBytes := ParamCount * 4 // fp32 master state per pass over params
	if o.FusedAdamSWA {
		// Fused kernel: bucket norms + one fused update walking all tensors.
		p.ClipKernels = 12
		b.emit(Group{Name: "opt/fused_adam_swa", Cat: CatMem, Calls: 14, Serial: true,
			Bytes: 5 * float64(optBytes)})
		b.emit(Group{Name: "opt/copies", Cat: CatMemOp, Calls: 400, Serial: true,
			Bytes: 0.2 * float64(optBytes)})
	} else {
		if o.BucketedClip {
			p.ClipKernels = 24
		} else {
			p.ClipKernels = 2*ParamTensors + 2
		}
		// Norm+scale, m, v, update, swa: six-ish launches per tensor.
		b.emit(Group{Name: "opt/adam", Cat: CatMem, Calls: 4 * ParamTensors, Serial: true,
			Bytes: 6 * float64(optBytes)})
		b.emit(Group{Name: "opt/swa", Cat: CatMem, Calls: 2 * ParamTensors, Serial: true,
			Bytes: 2 * float64(optBytes)})
		b.emit(Group{Name: "opt/clip", Cat: CatMem, Calls: p.ClipKernels, Serial: true,
			Bytes: 2 * float64(optBytes)})
		b.emit(Group{Name: "opt/copies", Cat: CatMemOp, Calls: int(1.5 * ParamTensors), Serial: true,
			Bytes: 0.5 * float64(optBytes)})
	}
	p.OptKernels = 0
	for _, g := range b.groups {
		if len(g.Name) >= 4 && g.Name[:4] == "opt/" {
			p.OptKernels += g.Calls
		}
	}
	p.Groups = b.groups

	// --- Precision: bf16 doubles the tensor-core math rate; the census
	// models it as a FLOP discount on math groups (the gpu package's peak is
	// the TF32 rate).
	if o.BF16 {
		for i := range b.groups {
			if b.groups[i].Cat == CatMath {
				b.groups[i].Flops *= 0.6
			}
		}
		p.Groups = b.groups
	}

	// --- DAP split: non-serial work divides across the DAP group ---
	if o.DAP > 1 {
		for i := range p.Groups {
			if !p.Groups[i].Serial {
				p.Groups[i].Flops /= float64(o.DAP)
				p.Groups[i].Bytes /= float64(o.DAP)
			}
		}
	}

	// --- DAP collectives ---
	if o.DAP > 1 {
		msaBytes := float64(S*R) * CM * b.bpe
		pairBytes := float64(R*R) * CZ * b.bpe
		blocks := cfg.EvoBlocks + cfg.ExtraBlocks + cfg.TemplateBlocks
		// Two all-to-alls per block per pass (row↔column axis flips), plus
		// one all-gather per block per pass for the outer-product-mean.
		p.Syncs = append(p.Syncs,
			SyncPoint{Op: comm.OpAllToAll, Bytes: (msaBytes + pairBytes) / 2 / float64(o.DAP), Count: 4 * blocks * passes},
			SyncPoint{Op: comm.OpAllGather, Bytes: msaBytes / float64(o.DAP), Count: 2 * blocks * passes},
		)
	}
	return p
}

func (o Options) gradBytesPerParam() float64 {
	if o.BF16 {
		return 2
	}
	return 4
}

// evoBlock emits one Evoformer block: 4 attention modules, 2 triangle
// multiplications, 2 transitions, 1 outer product mean (Figure 2).
func (b *builder) evoBlock(name string, s, r int, cm, cz, ct, copm float64, h, passes int) {
	// MSA-track attention: row-wise (with pair bias) and column-wise.
	b.attention(name+".rowattn", s, r, cm, cz, h, true, passes)
	b.attention(name+".colattn", r, s, cm, cz, h, false, passes)
	b.transition(name+".msatrans", float64(s*r), cm, passes)
	b.opm(name+".opm", s, r, cm, copm, cz, passes)
	b.pairCore(name, r, cz, ct, h, passes)
	b.transition(name+".pairtrans", float64(r*r), cz, passes)
}

// pairBlock emits a template-stack block (pair track only).
func (b *builder) pairBlock(name string, r int, cz, ct float64, h, passes int) {
	b.pairCore(name, r, cz, ct, h, passes)
	b.transition(name+".trans", float64(r*r), cz, passes)
}

// pairCore emits the two triangle multiplications and two triangle
// attentions shared by Evoformer and template blocks.
func (b *builder) pairCore(name string, r int, cz, ct float64, h, passes int) {
	b.triMul(name+".triout", r, cz, ct, passes)
	b.triMul(name+".triin", r, cz, ct, passes)
	b.attention(name+".tristart", r, r, cz, cz, h, true, passes)
	b.attention(name+".triend", r, r, cz, cz, h, true, passes)
}

// attention emits the AlphaFold MHA variant: nb batched attention problems
// of length l at width e, with optional pair bias projected from a [l,l]
// pair activation of width pairC.
func (b *builder) attention(name string, nb, l int, e, pairC float64, h int, pairBias bool, passes int) {
	o := b.opt
	pf := float64(passes)
	elems := float64(nb*l) * e
	logits := float64(nb * h * l * l)

	// LayerNorm on the input track.
	b.layerNorm(name+"/ln", elems, pf)

	if pairBias {
		b.emit(Group{Name: name + "/biasproj", Cat: CatMath, Calls: passes,
			Flops: 2 * float64(l*l) * pairC * float64(h) * pf,
			Bytes: (float64(l*l)*pairC + float64(l*l*h)) * b.bpe * pf})
	}

	// Four projection GEMMs (Q, K, V, gate).
	projCalls := 4
	projBytes := (8*elems + 4*e*e) * b.bpe
	if o.BatchedGEMM {
		projCalls = 1
		projBytes = (5*elems + 4*e*e) * b.bpe
	}
	b.emit(Group{Name: name + "/proj", Cat: CatMath, Calls: projCalls * passes,
		Flops: 8 * elems * e * pf, Bytes: projBytes * pf})

	if o.FusedMHA {
		// Flash-style fused kernel: the logits never hit DRAM, but the
		// backward pass re-reads Q/K/V and recomputes the probabilities, so
		// the fused kernel still moves several activation passes plus the
		// pair-bias tile traffic.
		b.emit(Group{Name: name + "/fusedmha", Cat: CatMath, Calls: passes,
			Flops: 5 * float64(nb*l*l) * e * pf,
			Bytes: (20*elems + 0.7*logits + float64(l*l*h)) * b.bpe * pf})
		// Residual fragment outside the fused kernel.
		b.emit(Group{Name: name + "/mha_misc", Cat: CatMem, Calls: 4 * passes, Fusable: true,
			Bytes: 2 * elems * b.bpe * pf})
	} else {
		b.emit(Group{Name: name + "/qk", Cat: CatMath, Calls: passes,
			Flops: 2 * float64(nb*l*l) * e * pf, Bytes: (2*elems + logits) * b.bpe * pf})
		// bias add, mask, max, exp, sum, div: six passes over the logits;
		// torch.compile fuses the chain down to two fused passes (§3.3.2).
		smCalls, smPasses := 6, 6.0
		if o.TorchCompile {
			smCalls, smPasses = 2, 2.4
		}
		b.emit(Group{Name: name + "/softmax", Cat: CatMem, Calls: smCalls * passes,
			Bytes: smPasses * logits * b.bpe * pf})
		b.emit(Group{Name: name + "/pv", Cat: CatMath, Calls: passes,
			Flops: 2 * float64(nb*l*l) * e * pf, Bytes: (logits + 2*elems) * b.bpe * pf})
		b.emit(Group{Name: name + "/gate", Cat: CatMem, Calls: 2 * passes,
			Bytes: 3 * elems * b.bpe * pf})
	}

	b.emit(Group{Name: name + "/out", Cat: CatMath, Calls: passes,
		Flops: 2 * elems * e * pf, Bytes: (2*elems + e*e) * b.bpe * pf})

	// Fragmented elementwise glue: permutes-as-compute, dropout masks,
	// residual adds. torch.compile fuses most of it.
	miscCalls, miscBytes := 16, 3.0
	if o.TorchCompile {
		miscCalls, miscBytes = 6, 2.6
	}
	b.emit(Group{Name: name + "/elemwise", Cat: CatMem, Calls: miscCalls * passes, Fusable: true,
		Bytes: miscBytes * elems * b.bpe * pf})
	b.emit(Group{Name: name + "/copies", Cat: CatMemOp, Calls: 10 * passes,
		Bytes: 3 * elems * b.bpe * pf})
}

// layerNorm emits an LN population over `elems` activations.
func (b *builder) layerNorm(name string, elems, pf float64) {
	if b.opt.FusedLN {
		b.emit(Group{Name: name, Cat: CatMem, Calls: int(pf),
			Bytes: 3.6 * elems * b.bpe * pf})
	} else {
		b.emit(Group{Name: name, Cat: CatMem, Calls: int(4 * pf),
			Bytes: 4.5 * elems * b.bpe * pf})
	}
}

// triMul emits one triangle multiplicative update.
func (b *builder) triMul(name string, r int, cz, ct float64, passes int) {
	pf := float64(passes)
	pairElems := float64(r*r) * cz
	b.layerNorm(name+"/ln", pairElems, pf)
	// Projections a, b, gates, output: 5 GEMMs + the einsum.
	b.emit(Group{Name: name + "/proj", Cat: CatMath, Calls: 5 * passes,
		Flops: (8*pairElems*ct + 2*pairElems*cz) * pf,
		Bytes: (6*pairElems + 4*float64(r*r)*ct) * b.bpe * pf})
	b.emit(Group{Name: name + "/einsum", Cat: CatMath, Calls: passes,
		Flops: 2 * float64(r*r*r) * ct * pf,
		Bytes: 3 * float64(r*r) * ct * b.bpe * pf})
	miscCalls, miscBytes := 14, 3.0
	if b.opt.TorchCompile {
		miscCalls, miscBytes = 5, 1.5
	}
	b.emit(Group{Name: name + "/elemwise", Cat: CatMem, Calls: miscCalls * passes, Fusable: true,
		Bytes: miscBytes * pairElems * b.bpe * pf})
	b.emit(Group{Name: name + "/copies", Cat: CatMemOp, Calls: 8 * passes,
		Bytes: 2 * pairElems * b.bpe * pf})
}

// transition emits the two-GEMM MLP transition.
func (b *builder) transition(name string, rows, c float64, passes int) {
	pf := float64(passes)
	elems := rows * c
	factor := 4.0
	b.layerNorm(name+"/ln", elems, pf)
	b.emit(Group{Name: name + "/gemm", Cat: CatMath, Calls: 2 * passes,
		Flops: 4 * elems * c * factor * pf,
		Bytes: (2*elems + 2*elems*factor) * b.bpe * pf})
	miscCalls, miscBytes := 4, 2.0
	if b.opt.TorchCompile {
		miscCalls, miscBytes = 2, 1.0
	}
	b.emit(Group{Name: name + "/elemwise", Cat: CatMem, Calls: miscCalls * passes, Fusable: true,
		Bytes: miscBytes * elems * factor / 2 * b.bpe * pf})
	b.emit(Group{Name: name + "/copies", Cat: CatMemOp, Calls: 4 * passes,
		Bytes: elems * b.bpe * pf})
}

// opm emits the outer product mean.
func (b *builder) opm(name string, s, r int, cm, copm, cz float64, passes int) {
	pf := float64(passes)
	msaElems := float64(s*r) * cm
	b.layerNorm(name+"/ln", msaElems, pf)
	b.emit(Group{Name: name + "/proj", Cat: CatMath, Calls: 2 * passes,
		Flops: 4 * msaElems * copm * pf, Bytes: 2 * msaElems * b.bpe * pf})
	b.emit(Group{Name: name + "/einsum", Cat: CatMath, Calls: passes,
		Flops: 2 * float64(s) * float64(r*r) * copm * copm * pf,
		Bytes: (2*float64(s*r)*copm + float64(r*r)*copm*copm) * b.bpe * pf})
	b.emit(Group{Name: name + "/out", Cat: CatMath, Calls: passes,
		Flops: 2 * float64(r*r) * copm * copm * cz * pf,
		Bytes: (float64(r*r)*copm*copm + float64(r*r)*cz) * b.bpe * pf})
	miscCalls := 8
	if b.opt.TorchCompile {
		miscCalls = 3
	}
	b.emit(Group{Name: name + "/elemwise", Cat: CatMem, Calls: miscCalls * passes, Fusable: true,
		Bytes: 2 * msaElems * b.bpe * pf})
	b.emit(Group{Name: name + "/copies", Cat: CatMemOp, Calls: 6 * passes,
		Bytes: msaElems * b.bpe * pf})
}
