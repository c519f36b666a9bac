// Package faultinject is the deterministic fault-schedule engine for the
// Mosaic PHY: it scripts device-level events — hard transmitter kills,
// gradual BER aging, burst-noise episodes, and correlated multi-channel
// failures — and replays them against a running phy.Link, with every
// event taking effect at a superframe boundary, the way real hardware
// swaps lanes between alignment periods.
//
// A Schedule is pure data (JSON-serializable, diffable, replayable); the
// soak runner (soak.go) executes one against a link and records an event
// log of remaps, maintenance actions, health transitions, and loss
// milestones. The survival study (survival.go) runs many seeded random
// schedules and cross-validates the pipeline-level survival fraction
// against the closed-form k-of-n math in internal/reliability.
package faultinject

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand"
	"os"
	"sort"

	"mosaic/internal/eventlog"
)

// Kind is the class of an injected fault.
type Kind string

// Fault kinds.
const (
	// KindKill turns a transmitter off permanently: the channel emits
	// noise from superframe At onward (phy.Link.KillChannel).
	KindKill Kind = "kill"
	// KindAging ramps a channel's BER log-linearly from its current value
	// up to BER over Duration superframes, then holds — the graceful LED
	// lumen-decay story the predictive-maintenance policy exists for.
	KindAging Kind = "aging"
	// KindBurst elevates a channel's BER to BER for Duration superframes,
	// then restores the pre-burst value — a transient interference or
	// connector-vibration episode.
	KindBurst Kind = "burst"
	// KindCorrelated kills Span adjacent physical channels starting at
	// Channel — a connector or fiber-core neighborhood failure taking out
	// spatially clustered channels at once.
	KindCorrelated Kind = "correlated"
)

// Event is one scripted fault. Events take effect at the boundary before
// superframe At (0-based): an event with At=0 is applied before any
// traffic flows.
type Event struct {
	At       int     `json:"at"`                 // superframe index
	Kind     Kind    `json:"kind"`               // fault class
	Channel  int     `json:"channel"`            // primary physical channel
	Span     int     `json:"span,omitempty"`     // correlated: channels affected (>=1)
	BER      float64 `json:"ber,omitempty"`      // aging target / burst level
	Duration int     `json:"duration,omitempty"` // aging ramp / burst length, superframes
}

// Validate checks one event's shape.
func (e Event) Validate() error {
	if e.At < 0 {
		return fmt.Errorf("faultinject: event at=%d before start", e.At)
	}
	if e.Channel < 0 {
		return fmt.Errorf("faultinject: negative channel %d", e.Channel)
	}
	switch e.Kind {
	case KindKill:
		return nil
	case KindAging, KindBurst:
		if e.BER <= 0 || e.BER > 0.5 {
			return fmt.Errorf("faultinject: %s needs 0 < ber <= 0.5, got %g", e.Kind, e.BER)
		}
		if e.Duration <= 0 {
			return fmt.Errorf("faultinject: %s needs duration > 0", e.Kind)
		}
		return nil
	case KindCorrelated:
		if e.Span < 1 {
			return fmt.Errorf("faultinject: correlated needs span >= 1, got %d", e.Span)
		}
		return nil
	default:
		return fmt.Errorf("faultinject: unknown kind %q", e.Kind)
	}
}

// The forms an Event is logged and rendered in (stable: the soak event
// log hashes them in its determinism golden test).
var (
	recKill       = eventlog.NewKind("sf=%d kill ch=%d", eventlog.Int, eventlog.Int)
	recAging      = eventlog.NewKind("sf=%d aging ch=%d to=%.2e over=%d", eventlog.Int, eventlog.Int, eventlog.Float, eventlog.Int)
	recBurst      = eventlog.NewKind("sf=%d burst ch=%d ber=%.2e for=%d", eventlog.Int, eventlog.Int, eventlog.Float, eventlog.Int)
	recCorrelated = eventlog.NewKind("sf=%d correlated ch=%d span=%d", eventlog.Int, eventlog.Int, eventlog.Int)
	recOther      = eventlog.NewKind("sf=%d %s ch=%d", eventlog.Int, eventlog.Str, eventlog.Int)
)

// Record appends the event as the nested record en takes.
func (e Event) Record(en eventlog.Entry) {
	switch e.Kind {
	case KindKill:
		en.Rec(recKill).Int(e.At).Int(e.Channel)
	case KindAging:
		en.Rec(recAging).Int(e.At).Int(e.Channel).Float(e.BER).Int(e.Duration)
	case KindBurst:
		en.Rec(recBurst).Int(e.At).Int(e.Channel).Float(e.BER).Int(e.Duration)
	case KindCorrelated:
		en.Rec(recCorrelated).Int(e.At).Int(e.Channel).Int(e.Span)
	default:
		en.Rec(recOther).Int(e.At).Str(string(e.Kind)).Int(e.Channel)
	}
}

// String renders the event compactly, as its record.
func (e Event) String() string { return eventlog.Line(e.Record) }

// Schedule is a validated, time-ordered fault script plus the seed that
// generated it (0 for hand-written schedules).
type Schedule struct {
	Seed   int64   `json:"seed,omitempty"`
	Events []Event `json:"events"`
}

// Validate checks every event and that the list is sorted by At (ties
// keep file order, which the runner preserves).
func (s Schedule) Validate() error {
	for i, e := range s.Events {
		if err := e.Validate(); err != nil {
			return fmt.Errorf("event %d: %w", i, err)
		}
		if i > 0 && e.At < s.Events[i-1].At {
			return fmt.Errorf("faultinject: events out of order at index %d (at=%d after at=%d)",
				i, e.At, s.Events[i-1].At)
		}
	}
	return nil
}

// Sort orders events by At, keeping the original order of simultaneous
// events (stable), so generated schedules always validate.
func (s *Schedule) Sort() {
	sort.SliceStable(s.Events, func(i, j int) bool {
		return s.Events[i].At < s.Events[j].At
	})
}

// Encode writes the schedule as indented JSON.
func (s Schedule) Encode(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(s)
}

// Decode parses a JSON schedule and validates it.
func Decode(r io.Reader) (Schedule, error) {
	var s Schedule
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&s); err != nil {
		return Schedule{}, fmt.Errorf("faultinject: parse schedule: %w", err)
	}
	if err := s.Validate(); err != nil {
		return Schedule{}, err
	}
	return s, nil
}

// LoadFile reads a JSON schedule from disk.
func LoadFile(path string) (Schedule, error) {
	f, err := os.Open(path)
	if err != nil {
		return Schedule{}, err
	}
	defer f.Close()
	return Decode(f)
}

// RandomKills samples one kill event per channel from independent
// geometric lifetimes with per-superframe hazard p, dropping channels
// that outlive the horizon. This is the discrete-time equivalent of the
// exponential lifetimes in reliability.MonteCarloSurvival: after T
// superframes a channel has failed with probability 1-(1-p)^T, so the
// pipeline-level survival of a soak over such a schedule is directly
// comparable to the k-of-n binomial closed form. A hazard of 1 or more
// is the limit of that lifetime: every channel dies in superframe 0.
func RandomKills(rng *rand.Rand, channels int, hazardPerSF float64, horizon int) Schedule {
	s := Schedule{}
	if hazardPerSF <= 0 || channels <= 0 || horizon <= 0 {
		return s
	}
	if hazardPerSF >= 1 {
		for c := 0; c < channels; c++ {
			s.Events = append(s.Events, Event{At: 0, Kind: KindKill, Channel: c})
		}
		return s
	}
	lnq := math.Log(1 - hazardPerSF)
	for c := 0; c < channels; c++ {
		u := rng.Float64()
		for u == 0 {
			u = rng.Float64()
		}
		// Geometric lifetime: death during superframe floor(ln(u)/ln(1-p)).
		life := int(math.Log(u) / lnq)
		if life < horizon {
			s.Events = append(s.Events, Event{At: life, Kind: KindKill, Channel: c})
		}
	}
	s.Sort()
	return s
}

// DefaultScenario builds a scripted showcase schedule for an n-channel
// link: an early hard kill, a slow-aging channel, a burst episode, and a
// correlated neighborhood failure in the final third. It exists so
// `linksoak` and `mosaicbench -soak` have a meaningful zero-config run.
func DefaultScenario(n, superframes int) (Schedule, error) {
	if n < 8 {
		return Schedule{}, errors.New("faultinject: default scenario needs >= 8 channels")
	}
	q := superframes / 4
	if q < 1 {
		return Schedule{}, errors.New("faultinject: default scenario needs >= 4 superframes")
	}
	s := Schedule{Events: []Event{
		{At: q / 2, Kind: KindKill, Channel: 2},
		{At: q, Kind: KindAging, Channel: n / 2, BER: 1e-3, Duration: q},
		{At: 2 * q, Kind: KindBurst, Channel: n / 3, BER: 2e-4, Duration: q / 2},
		{At: 3 * q, Kind: KindCorrelated, Channel: n - 4, Span: 3},
	}}
	s.Sort()
	return s, s.Validate()
}
