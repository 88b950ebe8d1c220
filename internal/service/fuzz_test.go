package service

import (
	"bytes"
	"encoding/json"
	"testing"
)

// FuzzSearchSpec drives the POST /v1/search submission pipeline over
// arbitrary JSON: the handler's strict decode (decodeSpec), defaulting,
// validation — none of it may panic whatever the bytes say (the handler
// runs exactly this path on unauthenticated input). Specs that validate
// must additionally survive the wire round trip and still validate: a job
// listed by GET /v1/jobs carries its submitted spec, and a client must be
// able to resubmit it verbatim.
func FuzzSearchSpec(f *testing.F) {
	f.Add([]byte(`{}`))
	f.Add([]byte(`{"objective":"minimize-cost-steptime","arch":"H100","ranks":[128,1024],"dap":[8],"fail_lo":1e-6,"fail_hi":1e-2,"budget":24}`))
	f.Add([]byte(`{"objective":"maximize-flops"}`))
	f.Add([]byte(`{"fail_lo":1,"fail_hi":0.5,"tolerance":-3,"cliff_goodput":7}`))
	f.Add([]byte(`{"ranks":[0,-5],"dap":[3],"mode":"guess","budget":1,"sim_workers":-2}`))
	f.Add([]byte(`{"restart_cost_s":1e308,"steps":-1}`))
	f.Add([]byte(`{"budget":8}}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		spec, err := decodeSpec[SearchJobSpec](bytes.NewReader(data))
		if err != nil {
			return // refused at the handler with 400
		}
		if err := spec.SearchSpec().WithDefaults().Validate(); err != nil {
			return // refused at Submit with 400
		}
		blob, err := json.Marshal(spec)
		if err != nil {
			t.Fatalf("accepted spec failed to marshal: %+v: %v", spec, err)
		}
		back, err := decodeSpec[SearchJobSpec](bytes.NewReader(blob))
		if err != nil {
			t.Fatalf("round trip of accepted spec rejected: %s: %v", blob, err)
		}
		if err := back.SearchSpec().WithDefaults().Validate(); err != nil {
			t.Fatalf("round trip broke validity: %s: %v", blob, err)
		}
	})
}

// FuzzJobSpec is FuzzSearchSpec for the sweep wire spec of POST /v1/jobs:
// the handler's strict decode, defaulting and validation never panic, and a
// spec that validates survives the wire round trip — the server lists it, a
// client resubmits it — still valid and expanding to the same number of
// cells.
// The execution hooks a SweepSpec carries never decode from the wire.
func FuzzJobSpec(f *testing.F) {
	f.Add([]byte(`{}`))
	f.Add([]byte(`{"profile":"baseline","arch":["H100","A100"],"ranks":[64,60],"dap":[1,8],"ablate":["none","zero-comm"],"seeds":2,"steps":4,"workers":2}`))
	f.Add([]byte(`{"scenarios":[{"platform":"H100","ranks":16,"dap":2,"seed":1},{"platform":"A100","ranks":8,"dap":1,"seed":2,"mode":"analytic"}],"perturb":{"fail_prob":0.001,"restart_cost_s":60},"mode":"auto"}`))
	f.Add([]byte(`{"mode":"psychic"}`))
	f.Add([]byte(`{"ablate":["zero-lunch"]}`))
	f.Add([]byte(`{"sim_workers":-1}`))
	f.Add([]byte(`{"Resolver":{}}`))
	f.Add([]byte(`{"OnRow":1}`))
	f.Add([]byte(`{"seeds":1}{"seeds":2}`))
	decode := func(data []byte) (JobSpec, error) { return decodeSpec[JobSpec](bytes.NewReader(data)) }
	for _, hook := range []string{`{"Resolver":{}}`, `{"OnRow":1}`, `{"Cache":{}}`} {
		if _, err := decode([]byte(hook)); err == nil {
			f.Fatalf("strict decode accepted the execution hook in %s", hook)
		}
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		spec, err := decode(data)
		if err != nil {
			return // refused at the handler with 400
		}
		spec = spec.WithDefaults()
		if spec.Validate() != nil {
			return // refused at Submit with 400
		}
		blob, err := json.Marshal(spec)
		if err != nil {
			t.Fatalf("accepted spec failed to marshal: %+v: %v", spec, err)
		}
		back, err := decode(blob)
		if err != nil {
			t.Fatalf("round trip of accepted spec rejected: %s: %v", blob, err)
		}
		back = back.WithDefaults()
		if err := back.Validate(); err != nil {
			t.Fatalf("round trip broke validity: %s: %v", blob, err)
		}
		if back.Cells() != spec.Cells() {
			t.Fatalf("round trip changed the cell count %d -> %d: %s", spec.Cells(), back.Cells(), blob)
		}
	})
}
