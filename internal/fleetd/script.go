package fleetd

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
)

// Op is one recorded fleet operation — the replayable form of an API
// request. A script of ops applied at fixed epochs, plus the fleet
// seed, fully determines the event log (the golden-sha determinism
// test replays one at different worker counts).
type Op struct {
	Epoch  int    `json:"epoch"`
	Action string `json:"action"` // create|degrade|renegotiate|retire|reload-budgets

	Count  int         `json:"count,omitempty"`  // create: links to admit (default 1)
	Design *LinkDesign `json:"design,omitempty"` // create: design override
	Link   int         `json:"link,omitempty"`   // degrade/renegotiate/retire target
	Kill   int         `json:"kill,omitempty"`   // degrade: channels to kill (default 1)

	Budgets *Budgets `json:"budgets,omitempty"` // reload-budgets: new budgets
}

// Script is a recorded operation sequence, ordered by epoch (ties keep
// slice order).
type Script []Op

// DecodeScript reads a JSON script (an array of ops).
func DecodeScript(r io.Reader) (Script, error) {
	var s Script
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&s); err != nil {
		return nil, fmt.Errorf("fleetd: script: %w", err)
	}
	return s, nil
}

// Apply executes one link op against the fleet and returns its raw
// outcome: the IDs a create admitted and the error the operation
// returned. It is the one action switch — the batch endpoint renders the
// outcome per op, Run decides which errors fail a replay.
func (f *Fleet) Apply(op Op) ([]int, error) {
	switch op.Action {
	case "create":
		return f.Create(max(op.Count, 1), op.Design)
	case "degrade":
		return nil, f.Degrade(op.Link, max(op.Kill, 1))
	case "renegotiate":
		return nil, f.Renegotiate(op.Link)
	case "retire":
		return nil, f.Retire(op.Link)
	}
	return nil, errors.New("unknown action " + op.Action)
}

// Run replays a script over the given number of epochs: at each epoch
// boundary the due ops apply in order, then the fleet steps once. Shed
// admissions and lifecycle refusals (illegal edge, unknown link) are not
// errors at the script level — they are recorded in the event log exactly
// as the API would record them — so only a malformed op fails the replay.
// reload-budgets exists only here: over HTTP a reload has its own
// endpoint.
func (f *Fleet) Run(script Script, epochs int) error {
	next := 0
	for e := 0; e < epochs; e++ {
		for ; next < len(script) && script[next].Epoch <= e; next++ {
			op := script[next]
			var err error
			if op.Action == "reload-budgets" {
				err = f.reloadBudgets(op.Budgets)
			} else {
				_, err = f.Apply(op)
			}
			var shed *ShedError
			var te *TransitionError
			if err != nil && !errors.As(err, &shed) && !errors.Is(err, ErrUnknownLink) && !errors.As(err, &te) {
				return fmt.Errorf("op %d (epoch %d): %w", next, e, err)
			}
		}
		f.Step()
	}
	return nil
}

func (f *Fleet) reloadBudgets(b *Budgets) error {
	if b == nil {
		return errors.New("fleetd: reload-budgets op needs budgets")
	}
	f.mu.Lock()
	cfg := f.cfg
	f.mu.Unlock()
	cfg.Budgets = *b
	return f.Reload(cfg)
}
