package conformance

import (
	"testing"

	"pfuzzer/internal/registry"
)

// TestConformanceAllSubjects runs the full kit against every
// registered subject — the matrix smoke CI runs on each push. A new
// subject gets all of this by registering; nothing else to write.
//
// Under -short the budgets are trimmed: that is the configuration the
// CI race job runs, where every property executes under the race
// detector's ~10x slowdown, and where the point is the concurrency
// coverage (the determinism property's shared-Program runs) rather
// than the search depth.
func TestConformanceAllSubjects(t *testing.T) {
	o := Options{}
	if testing.Short() {
		o = Options{CorpusExecs: 1200, EngineExecs: 800, MaxProbes: 120}
	}
	for _, e := range registry.All() {
		e := e
		t.Run(e.Name, func(t *testing.T) {
			CheckWith(t, e, o)
		})
	}
}
