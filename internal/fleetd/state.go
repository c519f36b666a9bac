// Package fleetd is the long-lived fleet service behind cmd/mosaicfleetd:
// it owns thousands of simulated Mosaic links — each a full PHY/MAC/Bridge
// stack driven by a seeded faultinject schedule — and walks every one of
// them through an explicit lifecycle on a shared work-stealing worker
// pool, under an admission-controlled operation API with token-bucket
// gating and load shedding.
//
// The package splits into a deterministic core and a real-time shell:
//
//   - The core (Fleet) advances in discrete epochs. Operations are applied
//     sequentially at epoch boundaries, link stepping fans out across the
//     pool with results buffered per link, and the fleet event log merges
//     those buffers in ascending link-ID order at the barrier — so under a
//     fixed seed and a recorded operation script the log is byte-identical
//     at any worker count (pinned by a golden-sha test in make
//     determinism, like the netsim and E24 witnesses).
//   - The shell (Server + cmd/mosaicfleetd) drives Step from a wall-clock
//     ticker, translates HTTP/JSON requests into operations, sheds load
//     with 429s when budgets are exceeded, hot-reloads configuration on
//     SIGHUP / POST /reload, and drains gracefully on SIGTERM. It bounds
//     what one request can cost (body size, batch length) with constants.
//
// Telemetry is two row tables (metrics.go) — the fleet's and a managed
// link's — pushed through telemetry.Mirror last thing at the barrier; a
// scrape reads the registry's atomics and never takes the fleet lock.
package fleetd

import "fmt"

// State is a managed link's lifecycle stage. The legal transition graph:
//
//	admitted ──▶ bring-up ──▶ serving ◀──────────┐
//	    │            │         │    ▲            │
//	    │            │         ▼    │(spares     │
//	    │            │       degraded absorb)    │
//	    │            │         │                 │
//	    │            │         ▼                 │
//	    │            │     renegotiating ────────┘
//	    │            │         │
//	    ▼            ▼         ▼
//	  draining ◀── draining ◀──┴── (retire op from any live state)
//	    │
//	    ▼
//	  retired (terminal)
//
// Forward progress (admitted→bring-up→serving, serving→degraded,
// renegotiating→serving, draining→retired) happens inside pooled steps;
// operation-driven edges (degraded→renegotiating, anything→draining) are
// applied sequentially at epoch boundaries.
type State uint8

const (
	StateAdmitted State = iota
	StateBringUp
	StateServing
	StateDegraded
	StateRenegotiating
	StateDraining
	StateRetired

	NumStates = int(StateRetired) + 1
)

var stateNames = [NumStates]string{
	"admitted", "bring-up", "serving", "degraded",
	"renegotiating", "draining", "retired",
}

// String returns the lifecycle stage's wire name (used in the event log,
// the JSON API, and the per-state telemetry gauges' state label).
func (s State) String() string {
	if int(s) < NumStates {
		return stateNames[s]
	}
	return fmt.Sprintf("state(%d)", uint8(s))
}

// legalEdges is the full transition relation. Anything not listed is
// rejected with a *TransitionError.
var legalEdges = map[State][]State{
	StateAdmitted:      {StateBringUp, StateDraining},
	StateBringUp:       {StateServing, StateDraining},
	StateServing:       {StateDegraded, StateDraining},
	StateDegraded:      {StateRenegotiating, StateDraining},
	StateRenegotiating: {StateServing, StateDegraded, StateDraining},
	StateDraining:      {StateRetired},
	StateRetired:       {},
}

// TransitionError reports an illegal lifecycle edge. It is the typed
// error every rejected transition returns, so callers (and the API
// layer, which maps it to 409) can distinguish a lifecycle conflict
// from a missing link or a shed operation.
type TransitionError struct {
	Link     int
	From, To State
}

func (e *TransitionError) Error() string {
	return fmt.Sprintf("fleetd: link %d: illegal transition %s -> %s", e.Link, e.From, e.To)
}

// CanTransition reports whether from -> to is a legal lifecycle edge.
func CanTransition(from, to State) bool {
	for _, next := range legalEdges[from] {
		if next == to {
			return true
		}
	}
	return false
}
