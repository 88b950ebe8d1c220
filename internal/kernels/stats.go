// Package kernels provides executable CPU implementations of the critical
// computation patterns ScaleFold optimizes (§3.3): LayerNorm, the AlphaFold
// multi-head attention variant with pair bias and sigmoid gating, the four
// independent projection GEMMs in front of MHA, the Adam+SWA optimizer step
// and gradient clipping.
//
// Every pattern exists in two forms:
//
//   - a Reference form that mirrors the fragmented OpenFold baseline — one
//     "kernel" (one full pass over memory, one launch) per elementary op,
//     intermediates materialized in DRAM-visible buffers; and
//   - a Fused form that mirrors the paper's Triton kernels — a single pass
//     that keeps intermediates in registers (locals), streams tiles, and
//     avoids re-reading inputs.
//
// Both forms compute identical results (tests assert numeric equivalence) so
// the difference visible in `go test -bench` — fewer ns/op, fewer B/op,
// fewer recorded launches — is exactly the effect the paper attributes to
// kernel fusion.
package kernels

// Stats accounts for kernel launches and memory traffic the way the paper's
// Table 1 profiles count them. Reference implementations record one launch
// per elementary pass; fused implementations record one launch total.
type Stats struct {
	Launches     int   // number of kernel launches
	BytesRead    int64 // bytes read from "DRAM" (materialized buffers)
	BytesWritten int64 // bytes written to "DRAM"
}

// Bytes returns the total traffic.
func (s Stats) Bytes() int64 { return s.BytesRead + s.BytesWritten }

// launch records one kernel launch reading r and writing w float32 elements.
func (s *Stats) launch(r, w int) {
	s.Launches++
	s.BytesRead += int64(r) * 4
	s.BytesWritten += int64(w) * 4
}
