package fleetd

import (
	"errors"
	"testing"
)

// Every legal edge of the lifecycle graph, exhaustively. Kept in sync
// with legalEdges by the exhaustive illegal-edge sweep below: every
// (from, to) pair is either here or must be rejected.
var legalEdgeTable = []struct{ from, to State }{
	{StateAdmitted, StateBringUp},
	{StateAdmitted, StateDraining},
	{StateBringUp, StateServing},
	{StateBringUp, StateDraining},
	{StateServing, StateDegraded},
	{StateServing, StateDraining},
	{StateDegraded, StateRenegotiating},
	{StateDegraded, StateDraining},
	{StateRenegotiating, StateServing},
	{StateRenegotiating, StateDegraded},
	{StateRenegotiating, StateDraining},
	{StateDraining, StateRetired},
}

func isLegal(from, to State) bool {
	for _, e := range legalEdgeTable {
		if e.from == from && e.to == to {
			return true
		}
	}
	return false
}

func TestLifecycleLegalEdges(t *testing.T) {
	for _, e := range legalEdgeTable {
		if !CanTransition(e.from, e.to) {
			t.Errorf("CanTransition(%s, %s) = false, want true", e.from, e.to)
		}
		ml := &managedLink{id: 7, state: e.from}
		if err := ml.transition(e.to, "test"); err != nil {
			t.Errorf("transition %s -> %s: %v", e.from, e.to, err)
		}
		if ml.state != e.to {
			t.Errorf("transition %s -> %s left state %s", e.from, e.to, ml.state)
		}
		if len(ml.events.Lines()) != 1 {
			t.Errorf("transition %s -> %s logged %d events, want 1", e.from, e.to, len(ml.events.Lines()))
		}
	}
}

// Every pair not in the legal table must be rejected with the typed
// error, carrying the exact (link, from, to) triple, and must not move
// the state or log an event.
func TestLifecycleIllegalEdges(t *testing.T) {
	for from := State(0); int(from) < NumStates; from++ {
		for to := State(0); int(to) < NumStates; to++ {
			if isLegal(from, to) {
				continue
			}
			if CanTransition(from, to) {
				t.Errorf("CanTransition(%s, %s) = true, want false", from, to)
			}
			ml := &managedLink{id: 42, state: from}
			err := ml.transition(to, "test")
			if err == nil {
				t.Errorf("transition %s -> %s: no error", from, to)
				continue
			}
			var te *TransitionError
			if !errors.As(err, &te) {
				t.Errorf("transition %s -> %s: error %T is not *TransitionError", from, to, err)
				continue
			}
			if te.Link != 42 || te.From != from || te.To != to {
				t.Errorf("transition %s -> %s: error carries (%d, %s, %s)",
					from, to, te.Link, te.From, te.To)
			}
			if ml.state != from {
				t.Errorf("rejected transition %s -> %s moved state to %s", from, to, ml.state)
			}
			if len(ml.events.Lines()) != 0 {
				t.Errorf("rejected transition %s -> %s logged events", from, to)
			}
		}
	}
}

func TestStateNamesRoundTrip(t *testing.T) {
	for i, name := range stateNames {
		if got := State(i).String(); got != name {
			t.Errorf("State(%d).String() = %q, want %q", i, got, name)
		}
	}
	if State(200).String() != "state(200)" {
		t.Errorf("out-of-range State string = %q", State(200).String())
	}
}

func TestTerminal(t *testing.T) {
	for s := State(0); int(s) < NumStates; s++ {
		want := s == StateRetired
		if got := len(legalEdges[s]) == 0; got != want {
			t.Errorf("%s has no outgoing edge = %v, want %v", s, got, want)
		}
	}
}
