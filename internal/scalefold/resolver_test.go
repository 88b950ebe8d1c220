package scalefold

import (
	"testing"

	"repro/internal/cluster"
	"repro/internal/obs"
	"repro/internal/scenario"
	"repro/internal/store"
)

// TestTracingAddsNoAllocPerCell pins the cost of a cell span and of Resolve
// itself. A store-hit Resolve on a warmed traced Resolver allocates no more
// often than on an untraced one: the span is a typed record appended to the
// tracer, with no args map and no lane name built per cell. And an untraced
// store hit of a lowered cell allocates no more than the store's own Get:
// Resolve takes no fingerprint, since the lowering keyed the cell once.
func TestTracingAddsNoAllocPerCell(t *testing.T) {
	c := Figure7Config("H100", 64, 2)
	c.Scenario.Mode = scenario.ModeAnalytic
	st := store.NewMem[cluster.Result]()
	tr := obs.NewTracer()
	plain, traced := &Resolver{Store: st}, &Resolver{Store: st, Trace: tr}
	cell, err := plain.lower(c, 0, nil, "")
	if err != nil {
		t.Fatal(err)
	}
	resolve := func(r *Resolver) {
		if _, _, err := r.Resolve(t.Context(), cell.Config, cell.Key); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 1000; i++ { // the first estimates and stores; the rest warm the tracer
		resolve(traced)
	}
	allocs := func(r *Resolver) float64 {
		return testing.AllocsPerRun(500, func() { resolve(r) })
	}
	bare, withTrace := allocs(plain), allocs(traced)
	if withTrace-bare > 0.05 {
		t.Errorf("a traced store hit makes %.2f allocations, an untraced one %.2f", withTrace, bare)
	}
	if get := testing.AllocsPerRun(500, func() { st.Get(cell.Key) }); bare > get {
		t.Errorf("an untraced store-hit Resolve makes %.2f allocations, the store's Get %.2f", bare, get)
	}
	spans := 0
	for _, ev := range tr.Events() {
		if ev.Ph == "X" && ev.Args["source"] == string(FromStore) {
			spans++
		}
	}
	if spans < 1000 {
		t.Fatalf("trace holds %d store-hit spans, want at least 1000", spans)
	}
}
