package workload

// CategoryTotals aggregates a kernel category.
type CategoryTotals struct {
	Calls int
	Flops float64
	Bytes float64
}

// Totals aggregates the program's groups per Table 1 category.
func (p *Program) Totals() map[Category]CategoryTotals {
	out := map[Category]CategoryTotals{}
	for _, g := range p.Groups {
		t := out[g.Cat]
		t.Calls += g.Calls
		t.Flops += g.Flops
		t.Bytes += g.Bytes
		out[g.Cat] = t
	}
	return out
}

// TotalCalls is the total kernel launch count per step.
func (p *Program) TotalCalls() int {
	n := 0
	for _, g := range p.Groups {
		n += g.Calls
	}
	return n
}
