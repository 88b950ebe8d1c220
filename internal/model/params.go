// Package model implements a complete miniature AlphaFold2 model in the
// OpenFold formulation: input embedding, a template pair stack, an extra-MSA
// stack, the 48-block Evoformer stack (Figure 1), and a structure module,
// with recycling. All nine Evoformer sub-modules of Figure 2 are present:
// row-wise gated self-attention with pair bias, column-wise gated
// self-attention, MSA transition, outer product mean, triangle
// multiplicative updates using outgoing and incoming edges, triangle
// self-attention around the starting and ending nodes, and pair transition.
//
// Channel widths and depths are configurable: tests and examples run a
// reduced geometry that trains on a laptop, while the workload census in
// package workload uses the full AlphaFold shape to reproduce Table 1.
package model

import (
	"math"
	"math/rand"
	"sort"

	"repro/internal/autograd"
	"repro/internal/tensor"
)

// Params owns every trainable tensor of the model, keyed by a hierarchical
// name such as "evoformer.3.rowattn.wq". It survives tape resets: at the
// start of each training step the trainer re-watches all parameters on a
// fresh tape.
type Params struct {
	tape   *autograd.Tape
	byName map[string]*autograd.Value
	names  []string
	rng    *rand.Rand
}

// NewParams creates an empty registry bound to tape, with a seeded
// initializer RNG.
func NewParams(tape *autograd.Tape, seed int64) *Params {
	return &Params{tape: tape, byName: map[string]*autograd.Value{}, rng: rand.New(rand.NewSource(seed))}
}

// Tape returns the registry's current tape.
func (p *Params) Tape() *autograd.Tape { return p.tape }

// Linear creates (or returns) a weight matrix [in,out] with Xavier-uniform
// init. Lecun/Xavier keeps the tiny model trainable without warmup.
func (p *Params) Linear(name string, in, out int) *autograd.Value {
	return p.get(name, func() *tensor.Tensor {
		t := tensor.New(in, out)
		bound := math.Sqrt(6.0 / float64(in+out))
		t.RandUniform(p.rng, -bound, bound)
		return t
	})
}

// Bias creates (or returns) a zero-initialized bias vector [n].
func (p *Params) Bias(name string, n int) *autograd.Value {
	return p.get(name, func() *tensor.Tensor { return tensor.New(n) })
}

// Gamma creates (or returns) a ones-initialized LayerNorm scale [n].
func (p *Params) Gamma(name string, n int) *autograd.Value {
	return p.get(name, func() *tensor.Tensor {
		t := tensor.New(n)
		t.Fill(1)
		return t
	})
}

func (p *Params) get(name string, mk func() *tensor.Tensor) *autograd.Value {
	if v, ok := p.byName[name]; ok {
		return v
	}
	v := p.tape.Param(mk())
	p.byName[name] = v
	p.names = append(p.names, name)
	return v
}

// Rebind resets the registry onto a fresh tape: parameters keep their
// tensors (and thus their learned values) but get clean gradients.
func (p *Params) Rebind(tape *autograd.Tape) {
	p.tape = tape
	for _, n := range p.names {
		tape.Watch(p.byName[n])
	}
}

// All returns the parameter Values in registration order.
func (p *Params) All() []*autograd.Value {
	out := make([]*autograd.Value, len(p.names))
	for i, n := range p.names {
		out[i] = p.byName[n]
	}
	return out
}

// Names returns the registered names sorted alphabetically (for stable
// debugging output).
func (p *Params) Names() []string {
	out := append([]string(nil), p.names...)
	sort.Strings(out)
	return out
}

// Count returns the total number of scalar parameters.
func (p *Params) Count() int {
	n := 0
	for _, name := range p.names {
		n += p.byName[name].X.Len()
	}
	return n
}
