package runner

import (
	"locat/internal/sparksim"
)

// NewSim returns the simulator as a Runner: its method set is the contract's
// origin, so a simulator-backed session is byte-identical to driving the
// simulator directly. Results are pure functions of (run index,
// configuration, size), which lets a checkpoint-resumed session re-drive the
// identical trajectory.
func NewSim(s *sparksim.Simulator) Runner { return s }
