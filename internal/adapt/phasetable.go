package adapt

import "sync"

// PhaseTable is the controller system's memory of adapted phases
// (§4.3.3): "If this phase has been seen before, a saved configuration is
// reused; otherwise, the controller attempts to find a good configuration."
//
// The table is safe for concurrent use (the interrupt handler and the
// sensor paths both touch it).
type PhaseTable struct {
	mu     sync.Mutex
	points map[int]OperatingPoint
}

// NewPhaseTable creates an empty table.
func NewPhaseTable() *PhaseTable {
	return &PhaseTable{points: make(map[int]OperatingPoint)}
}

// Save stores (or replaces) a phase's adapted configuration.
func (t *PhaseTable) Save(phaseID int, point OperatingPoint) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.points[phaseID] = point.Clone()
}

// Lookup returns the saved configuration of a phase, if any.
func (t *PhaseTable) Lookup(phaseID int) (OperatingPoint, bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	p, ok := t.points[phaseID]
	if !ok {
		return OperatingPoint{}, false
	}
	return p.Clone(), true
}
