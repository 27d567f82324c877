package runner

import (
	"locat/internal/sparksim"
)

// Sim adapts *sparksim.Simulator to the Runner contract, preserving the
// simulator's behavior bit-for-bit: every method delegates, so a Sim-backed
// session is byte-identical to driving the simulator directly.
//
// The bare *sparksim.Simulator also satisfies Runner (its method set is the
// contract's origin); the adapter only adds explicit capability reporting.
type Sim struct {
	*sparksim.Simulator
}

// NewSim wraps a simulator.
func NewSim(s *sparksim.Simulator) Sim { return Sim{Simulator: s} }

// Capabilities report the simulator's per-run-index noise streams.
// Deterministic holds because results are pure functions of (run index,
// configuration, size) — the invariant the whole run-index scheme rests on
// — which lets a checkpoint-resumed session re-drive the identical
// trajectory and serve paid runs from the checkpoint verbatim.
func (s Sim) Capabilities() Capabilities {
	return Capabilities{Deterministic: true}
}

// Compile-time checks: the adapter and the bare simulator both satisfy the
// run contract.
var (
	_ Runner   = Sim{}
	_ Runner   = (*sparksim.Simulator)(nil)
	_ Reporter = Sim{}
)
