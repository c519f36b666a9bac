package fleetd

import (
	"cmp"
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

// Apply executes one op against the fleet and returns its raw outcome:
// the IDs a create admitted and the error the operation returned. It is
// the one door every op-shaped mutation goes through — the HTTP routes,
// a batch, a replayed Script and the daemon's start-up admission. A zero
// count or kill means one; a negative one reaches the operation, which
// refuses it.
func (f *Fleet) Apply(op Op) ([]int, error) {
	switch op.Action {
	case "create":
		return f.Create(cmp.Or(op.Count, 1), op.Design)
	case "degrade":
		return nil, f.degrade(op.Link, cmp.Or(op.Kill, 1))
	case "renegotiate":
		return nil, f.renegotiate(op.Link)
	case "retire":
		return nil, f.retire(op.Link)
	case "reload-budgets":
		if op.Budgets == nil {
			return nil, errors.New("fleetd: reload-budgets op needs budgets")
		}
		f.mu.Lock()
		defer f.mu.Unlock()
		cfg := f.cfg
		cfg.Budgets = *op.Budgets
		return nil, f.reloadLocked(cfg)
	}
	return nil, errors.New("unknown action " + op.Action)
}

// Run replays a script over the given number of epochs: at each epoch
// boundary the due ops apply in order, then the fleet steps once. Shed
// admissions and lifecycle refusals (illegal edge, unknown link) are not
// errors at the script level — they are recorded in the event log exactly
// as the API would record them — so only a malformed op fails the replay.
func (f *Fleet) Run(script Script, epochs int) error {
	next := 0
	for e := 0; e < epochs; e++ {
		for ; next < len(script) && script[next].Epoch <= e; next++ {
			_, err := f.Apply(script[next])
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
