// Package scenario is the composable scenario layer: a
// scenario is a JSON-described workload mix (AI-collective all-reduce
// and all-to-all, incast, storage replication fan-out, diurnal
// user-facing load with flash crowds) crossed with an environment model
// (radiation SEU/burst upsets, thermal cycling coupled through the
// photonics temperature model, connector contamination as correlated
// multi-channel degradation), run over the sharded fleet flow engine
// (netsim.FleetSim).
//
// A Spec is pure data: schema-validated JSON naming a topology, a seed,
// and two lists of components. Components compose by value, not by
// position — before a run they are resolved (named defs, cycle-checked)
// and canonically ordered by content, and every component derives its
// RNG stream from the spec seed and its own canonical encoding. Two
// specs that list the same components in different array orders
// therefore produce byte-identical event logs (pinned by the 50-
// iteration composition-order regression test).
//
// Every scenario in Library() registers automatically as an experiment
// (internal/experiments), runs live inside mosaicfleetd (a `scenario`
// field on link-create swaps the link's fault schedule for the
// scenario's witness schedule), and is covered by the conformance
// harness: worker-count-invariant event logs, flow conservation and
// max-min throughout, and injected fault counts matching the schedule's
// closed-form expectation.
package scenario

import (
	"encoding/json"
	"errors"
	"fmt"
	"hash/fnv"
	"io"
	"regexp"
	"sort"
	"strings"
)

// Schema bounds. Validation rejects anything outside them, so a fuzzed
// or hostile spec cannot ask the engine for an absurd amount of work.
const (
	MaxEpochs     = 2000
	MaxDefs       = 32
	MaxComponents = 16
	MaxRefDepth   = 16
	maxLinks      = 50000
)

// Workload component kinds.
const (
	KindAllReduce = "allreduce" // ring all-reduce rounds inside fixed groups
	KindAllToAll  = "alltoall"  // periodic full-mesh exchange inside groups
	KindIncast    = "incast"    // periodic fan-in burst onto one receiver
	KindStorage   = "storage"   // replication fan-out writes
	KindDiurnal   = "diurnal"   // diurnal user-facing load, optional flash crowd
)

// Environment component kinds.
const (
	KindRadiation     = "radiation"     // SEU dips + correlated burst upsets
	KindThermal       = "thermal"       // case-temperature cycling via photonics
	KindContamination = "contamination" // permanent correlated multi-channel loss
)

var workloadKinds = map[string]bool{
	KindAllReduce: true, KindAllToAll: true, KindIncast: true,
	KindStorage: true, KindDiurnal: true,
}

var environmentKinds = map[string]bool{
	KindRadiation: true, KindThermal: true, KindContamination: true,
}

// TopoSpec sizes the fleet topology the scenario runs over (see
// netsim.NewFleet): Pods leaf-spine pods joined by Spines cores.
type TopoSpec struct {
	Pods         int     `json:"pods"`
	Leaves       int     `json:"leaves"`
	Spines       int     `json:"spines"`
	HostsPerLeaf int     `json:"hosts_per_leaf"`
	LinkRateBps  float64 `json:"link_rate_bps"`
}

// Hosts returns the host count the topology will have.
func (t TopoSpec) Hosts() int { return t.Pods * t.Leaves * t.HostsPerLeaf }

// Links returns the link count the topology will have (host links +
// leaf-spine bipartite + spine-core uplinks).
func (t TopoSpec) Links() int {
	perPod := t.Leaves*t.HostsPerLeaf + t.Leaves*t.Spines + t.Spines
	return t.Pods * perPod
}

// Validate bounds the topology.
func (t TopoSpec) Validate() error {
	switch {
	case t.Pods < 1 || t.Pods > 32:
		return fmt.Errorf("scenario: topology pods %d outside [1,32]", t.Pods)
	case t.Leaves < 1 || t.Leaves > 64:
		return fmt.Errorf("scenario: topology leaves %d outside [1,64]", t.Leaves)
	case t.Spines < 1 || t.Spines > 64:
		return fmt.Errorf("scenario: topology spines %d outside [1,64]", t.Spines)
	case t.HostsPerLeaf < 1 || t.HostsPerLeaf > 64:
		return fmt.Errorf("scenario: topology hosts_per_leaf %d outside [1,64]", t.HostsPerLeaf)
	case t.LinkRateBps <= 0 || t.LinkRateBps > 1e13 || t.LinkRateBps != t.LinkRateBps:
		return fmt.Errorf("scenario: topology link_rate_bps %g outside (0,1e13]", t.LinkRateBps)
	case t.Hosts() < 2:
		return errors.New("scenario: topology needs at least 2 hosts")
	case t.Links() > maxLinks:
		return fmt.Errorf("scenario: topology has %d links, max %d", t.Links(), maxLinks)
	}
	return nil
}

// FlashSpec is a diurnal workload's flash crowd: load multiplied by
// Mult for Epochs epochs starting at AtEpoch.
type FlashSpec struct {
	AtEpoch int     `json:"at_epoch"`
	Epochs  int     `json:"epochs"`
	Mult    float64 `json:"mult"`
}

// Component is one workload or environment, or a reference to a named
// definition in Spec.Defs. A reference carries only Ref; a concrete
// component carries Kind plus the fields its kind uses (the struct is a
// union — unused fields must stay zero, enforced by Validate through
// the canonical encoding).
type Component struct {
	Ref  string `json:"ref,omitempty"`
	Kind string `json:"kind,omitempty"`

	// Collective workloads (allreduce, alltoall, incast).
	Groups         int     `json:"groups,omitempty"`
	GroupSize      int     `json:"group_size,omitempty"`
	RoundsPerEpoch int     `json:"rounds_per_epoch,omitempty"`
	PeriodEpochs   int     `json:"period_epochs,omitempty"` // alltoall/incast cadence; thermal cycle length
	FanIn          int     `json:"fan_in,omitempty"`
	FlowBits       float64 `json:"flow_bits,omitempty"`

	// Storage replication.
	WritesPerEpoch int `json:"writes_per_epoch,omitempty"`
	Fanout         int `json:"fanout,omitempty"`

	// Diurnal load.
	PeakLoad float64    `json:"peak_load,omitempty"`
	MeanBits float64    `json:"mean_bits,omitempty"`
	Flash    *FlashSpec `json:"flash,omitempty"`

	// Radiation environment.
	SEURate       float64 `json:"seu_rate,omitempty"`     // per-link per-epoch transient upset probability
	SEUFraction   float64 `json:"seu_fraction,omitempty"` // capacity fraction during an SEU epoch
	BurstRate     float64 `json:"burst_rate,omitempty"`   // per-epoch correlated burst-upset probability
	BurstSpan     int     `json:"burst_span,omitempty"`   // adjacent links a burst takes down
	BurstEpochs   int     `json:"burst_epochs,omitempty"` // burst duration
	BurstFraction float64 `json:"burst_fraction,omitempty"`

	// Thermal environment.
	BaseK    float64 `json:"base_k,omitempty"`
	SwingK   float64 `json:"swing_k,omitempty"`
	MarginDB float64 `json:"margin_db,omitempty"` // optical margin the penalty eats into

	// Contamination environment.
	AtEpoch  int     `json:"at_epoch,omitempty"`
	Links    int     `json:"links,omitempty"`
	Span     int     `json:"span,omitempty"` // channels lost per contaminated connector
	Fraction float64 `json:"fraction,omitempty"`
}

// frac01 reports v in the open-closed interval (0,1) suitable for a
// capacity fraction (NaN rejected).
func frac01(v float64) bool { return v > 0 && v < 1 }

// prob reports v a probability in [0, max].
func prob(v, max float64) bool { return v >= 0 && v <= max }

// validateResolved checks a concrete (Ref already resolved away)
// component for the given role ("workload" or "environment").
func (c Component) validateResolved(role string) error {
	if c.Ref != "" {
		return fmt.Errorf("scenario: unresolved ref %q", c.Ref)
	}
	switch role {
	case "workload":
		if !workloadKinds[c.Kind] {
			return fmt.Errorf("scenario: %q is not a workload kind", c.Kind)
		}
	case "environment":
		if !environmentKinds[c.Kind] {
			return fmt.Errorf("scenario: %q is not an environment kind", c.Kind)
		}
	default:
		return fmt.Errorf("scenario: unknown role %q", role)
	}

	switch c.Kind {
	case KindAllReduce:
		switch {
		case c.Groups < 1 || c.Groups > 64:
			return fmt.Errorf("scenario: allreduce groups %d outside [1,64]", c.Groups)
		case c.GroupSize < 2 || c.GroupSize > 64:
			return fmt.Errorf("scenario: allreduce group_size %d outside [2,64]", c.GroupSize)
		case c.RoundsPerEpoch < 1 || c.RoundsPerEpoch > 64:
			return fmt.Errorf("scenario: allreduce rounds_per_epoch %d outside [1,64]", c.RoundsPerEpoch)
		case c.FlowBits <= 0 || c.FlowBits > 1e14:
			return fmt.Errorf("scenario: allreduce flow_bits %g outside (0,1e14]", c.FlowBits)
		}
	case KindAllToAll:
		switch {
		case c.Groups < 1 || c.Groups > 64:
			return fmt.Errorf("scenario: alltoall groups %d outside [1,64]", c.Groups)
		case c.GroupSize < 2 || c.GroupSize > 32:
			return fmt.Errorf("scenario: alltoall group_size %d outside [2,32]", c.GroupSize)
		case c.PeriodEpochs < 1 || c.PeriodEpochs > 1000:
			return fmt.Errorf("scenario: alltoall period_epochs %d outside [1,1000]", c.PeriodEpochs)
		case c.FlowBits <= 0 || c.FlowBits > 1e14:
			return fmt.Errorf("scenario: alltoall flow_bits %g outside (0,1e14]", c.FlowBits)
		}
	case KindIncast:
		switch {
		case c.FanIn < 2 || c.FanIn > 256:
			return fmt.Errorf("scenario: incast fan_in %d outside [2,256]", c.FanIn)
		case c.PeriodEpochs < 1 || c.PeriodEpochs > 1000:
			return fmt.Errorf("scenario: incast period_epochs %d outside [1,1000]", c.PeriodEpochs)
		case c.FlowBits <= 0 || c.FlowBits > 1e14:
			return fmt.Errorf("scenario: incast flow_bits %g outside (0,1e14]", c.FlowBits)
		}
	case KindStorage:
		switch {
		case c.WritesPerEpoch < 1 || c.WritesPerEpoch > 1024:
			return fmt.Errorf("scenario: storage writes_per_epoch %d outside [1,1024]", c.WritesPerEpoch)
		case c.Fanout < 1 || c.Fanout > 16:
			return fmt.Errorf("scenario: storage fanout %d outside [1,16]", c.Fanout)
		case c.FlowBits <= 0 || c.FlowBits > 1e14:
			return fmt.Errorf("scenario: storage flow_bits %g outside (0,1e14]", c.FlowBits)
		}
	case KindDiurnal:
		switch {
		case c.PeakLoad <= 0 || c.PeakLoad > 4:
			return fmt.Errorf("scenario: diurnal peak_load %g outside (0,4]", c.PeakLoad)
		case c.MeanBits < 1e6 || c.MeanBits > 1e12:
			return fmt.Errorf("scenario: diurnal mean_bits %g outside [1e6,1e12]", c.MeanBits)
		}
		if f := c.Flash; f != nil {
			switch {
			case f.AtEpoch < 0 || f.AtEpoch > MaxEpochs:
				return fmt.Errorf("scenario: flash at_epoch %d outside [0,%d]", f.AtEpoch, MaxEpochs)
			case f.Epochs < 1 || f.Epochs > MaxEpochs:
				return fmt.Errorf("scenario: flash epochs %d outside [1,%d]", f.Epochs, MaxEpochs)
			case f.Mult < 1 || f.Mult > 16:
				return fmt.Errorf("scenario: flash mult %g outside [1,16]", f.Mult)
			}
		}
	case KindRadiation:
		switch {
		case !prob(c.SEURate, 0.5):
			return fmt.Errorf("scenario: radiation seu_rate %g outside [0,0.5]", c.SEURate)
		case !prob(c.BurstRate, 0.5):
			return fmt.Errorf("scenario: radiation burst_rate %g outside [0,0.5]", c.BurstRate)
		case c.SEURate == 0 && c.BurstRate == 0:
			return errors.New("scenario: radiation needs seu_rate > 0 or burst_rate > 0")
		}
		if c.SEURate > 0 && !frac01(c.SEUFraction) {
			return fmt.Errorf("scenario: radiation seu_fraction %g outside (0,1)", c.SEUFraction)
		}
		if c.BurstRate > 0 {
			switch {
			case c.BurstSpan < 1 || c.BurstSpan > 16:
				return fmt.Errorf("scenario: radiation burst_span %d outside [1,16]", c.BurstSpan)
			case c.BurstEpochs < 1 || c.BurstEpochs > 64:
				return fmt.Errorf("scenario: radiation burst_epochs %d outside [1,64]", c.BurstEpochs)
			case !frac01(c.BurstFraction):
				return fmt.Errorf("scenario: radiation burst_fraction %g outside (0,1)", c.BurstFraction)
			}
		}
	case KindThermal:
		switch {
		case c.BaseK < 250 || c.BaseK > 400:
			return fmt.Errorf("scenario: thermal base_k %g outside [250,400]", c.BaseK)
		case c.SwingK <= 0 || c.SwingK > 150:
			return fmt.Errorf("scenario: thermal swing_k %g outside (0,150]", c.SwingK)
		case c.PeriodEpochs < 1 || c.PeriodEpochs > 1000:
			return fmt.Errorf("scenario: thermal period_epochs %d outside [1,1000]", c.PeriodEpochs)
		case c.MarginDB <= 0 || c.MarginDB > 20:
			return fmt.Errorf("scenario: thermal margin_db %g outside (0,20]", c.MarginDB)
		}
	case KindContamination:
		switch {
		case c.AtEpoch < 0 || c.AtEpoch > MaxEpochs:
			return fmt.Errorf("scenario: contamination at_epoch %d outside [0,%d]", c.AtEpoch, MaxEpochs)
		case c.Links < 1 || c.Links > 64:
			return fmt.Errorf("scenario: contamination links %d outside [1,64]", c.Links)
		case c.Span < 1 || c.Span > 16:
			return fmt.Errorf("scenario: contamination span %d outside [1,16]", c.Span)
		case !frac01(c.Fraction):
			return fmt.Errorf("scenario: contamination fraction %g outside (0,1)", c.Fraction)
		}
	}
	return nil
}

// Spec is one scenario: workloads × environments × topology × seed.
type Spec struct {
	Name         string               `json:"name"`
	Seed         int64                `json:"seed"`
	Epochs       int                  `json:"epochs"`
	WindowEpochs int                  `json:"window_epochs,omitempty"` // table row granularity (0 = epochs/6)
	Topology     TopoSpec             `json:"topology"`
	Defs         map[string]Component `json:"defs,omitempty"` // named reusable components
	Workloads    []Component          `json:"workloads"`
	Environments []Component          `json:"environments,omitempty"`
}

var nameRE = regexp.MustCompile(`^[a-z0-9][a-z0-9-]{0,63}$`)
var defNameRE = regexp.MustCompile(`^[A-Za-z0-9_-]{1,32}$`)

// resolveComponent follows refs through Defs, rejecting unknown names,
// cycles, and over-deep chains. A ref must be pure: a component naming
// Ref may set nothing else.
func (s *Spec) resolveComponent(c Component, depth int, trail []string) (Component, error) {
	if c.Ref == "" {
		return c, nil
	}
	pure := Component{Ref: c.Ref}
	if c != pure {
		return Component{}, fmt.Errorf("scenario: ref %q must not carry other fields", c.Ref)
	}
	if depth >= MaxRefDepth {
		return Component{}, fmt.Errorf("scenario: ref chain too deep at %q", c.Ref)
	}
	for _, seen := range trail {
		if seen == c.Ref {
			return Component{}, fmt.Errorf("scenario: cyclic ref %q (via %s)", c.Ref, strings.Join(trail, " -> "))
		}
	}
	next, ok := s.Defs[c.Ref]
	if !ok {
		return Component{}, fmt.Errorf("scenario: unknown ref %q", c.Ref)
	}
	return s.resolveComponent(next, depth+1, append(trail, c.Ref))
}

// resolved is a concrete component plus its content-derived identity:
// the canonical JSON encoding, the display name (kind#hash), and the
// seed its RNG stream starts from. Identity depends only on content —
// never on array position — which is what makes composition
// order-invariant.
type resolved struct {
	comp  Component
	canon string
	name  string
	seed  int64
}

func (s *Spec) resolve(list []Component, role string) ([]resolved, error) {
	out := make([]resolved, 0, len(list))
	for i, c := range list {
		rc, err := s.resolveComponent(c, 0, nil)
		if err != nil {
			return nil, fmt.Errorf("%s %d: %w", role, i, err)
		}
		if err := rc.validateResolved(role); err != nil {
			return nil, fmt.Errorf("%s %d: %w", role, i, err)
		}
		b, err := json.Marshal(rc)
		if err != nil {
			return nil, err
		}
		h := fnv.New64a()
		h.Write(b)
		sum := h.Sum64()
		out = append(out, resolved{
			comp:  rc,
			canon: string(b),
			name:  fmt.Sprintf("%s#%04x", rc.Kind, sum&0xffff),
			seed:  s.Seed ^ int64(sum&0x7fffffffffffffff),
		})
	}
	// Canonical order: by kind, then canonical encoding. Stable, so
	// duplicate components (same content, same RNG stream) both survive.
	sort.SliceStable(out, func(i, j int) bool {
		if out[i].comp.Kind != out[j].comp.Kind {
			return out[i].comp.Kind < out[j].comp.Kind
		}
		return out[i].canon < out[j].canon
	})
	return out, nil
}

// Validate checks the whole spec: bounds, ref resolution (including
// cycles through unreferenced defs), kind-level parameter ranges, and
// the cross-field feasibility of workloads against the topology.
func (s *Spec) Validate() error {
	if !nameRE.MatchString(s.Name) {
		return fmt.Errorf("scenario: bad name %q (want lowercase [a-z0-9-], <= 64 chars)", s.Name)
	}
	if s.Epochs < 1 || s.Epochs > MaxEpochs {
		return fmt.Errorf("scenario: epochs %d outside [1,%d]", s.Epochs, MaxEpochs)
	}
	if s.WindowEpochs < 0 || s.WindowEpochs > s.Epochs {
		return fmt.Errorf("scenario: window_epochs %d outside [0,%d]", s.WindowEpochs, s.Epochs)
	}
	if err := s.Topology.Validate(); err != nil {
		return err
	}
	if len(s.Defs) > MaxDefs {
		return fmt.Errorf("scenario: %d defs, max %d", len(s.Defs), MaxDefs)
	}
	for name := range s.Defs {
		if !defNameRE.MatchString(name) {
			return fmt.Errorf("scenario: bad def name %q", name)
		}
	}
	// Every def must resolve without a cycle even if nothing references
	// it yet — a latent cycle is a spec bug, not a runtime surprise.
	names := make([]string, 0, len(s.Defs))
	for name := range s.Defs {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		if _, err := s.resolveComponent(Component{Ref: name}, 0, nil); err != nil {
			return fmt.Errorf("def %q: %w", name, err)
		}
	}
	if len(s.Workloads) < 1 || len(s.Workloads) > MaxComponents {
		return fmt.Errorf("scenario: %d workloads outside [1,%d]", len(s.Workloads), MaxComponents)
	}
	if len(s.Environments) > MaxComponents {
		return fmt.Errorf("scenario: %d environments, max %d", len(s.Environments), MaxComponents)
	}
	ws, err := s.resolve(s.Workloads, "workload")
	if err != nil {
		return err
	}
	if _, err := s.resolve(s.Environments, "environment"); err != nil {
		return err
	}

	// Cross-field feasibility against the topology.
	hosts := s.Topology.Hosts()
	for _, w := range ws {
		c := w.comp
		switch c.Kind {
		case KindAllReduce, KindAllToAll:
			if c.Groups*c.GroupSize > hosts {
				return fmt.Errorf("scenario: %s needs %d hosts, topology has %d",
					c.Kind, c.Groups*c.GroupSize, hosts)
			}
		case KindIncast:
			if c.FanIn+1 > hosts {
				return fmt.Errorf("scenario: incast fan_in %d needs %d hosts, topology has %d",
					c.FanIn, c.FanIn+1, hosts)
			}
		case KindStorage:
			if c.Fanout+1 > hosts {
				return fmt.Errorf("scenario: storage fanout %d needs %d hosts, topology has %d",
					c.Fanout, c.Fanout+1, hosts)
			}
		}
	}
	return nil
}

// windowEpochs returns the effective table-row granularity.
func (s *Spec) windowEpochs() int {
	if s.WindowEpochs > 0 {
		return s.WindowEpochs
	}
	w := s.Epochs / 6
	if w < 1 {
		w = 1
	}
	return w
}

// Decode parses a JSON spec (unknown fields rejected) and validates it.
func Decode(r io.Reader) (Spec, error) {
	var s Spec
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&s); err != nil {
		return Spec{}, fmt.Errorf("scenario: parse spec: %w", err)
	}
	if err := s.Validate(); err != nil {
		return Spec{}, err
	}
	return s, nil
}

// Parse parses a JSON spec from bytes.
func Parse(data []byte) (Spec, error) { return Decode(strings.NewReader(string(data))) }
