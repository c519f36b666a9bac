package fleetd

import (
	"fmt"
	"math/rand"

	"mosaic/internal/eventlog"
	"mosaic/internal/faultinject"
	"mosaic/internal/mac"
	"mosaic/internal/phy"
	"mosaic/internal/scenario"
	"mosaic/internal/telemetry"
)

// managedLink is one fleet member: a full-duplex PHY pair under a MAC
// endpoint pair, a seeded fault schedule replayed by the shared
// faultinject.Supervisor, and a capacity bridge — plus the lifecycle
// bookkeeping the state machine needs. During a pooled step the link is
// owned exclusively by its worker; between steps the fleet lock guards
// it.
type managedLink struct {
	id     int
	topoID int // fleet topology link this member occupies
	seed   int64
	design LinkDesign

	state   State
	sf      int                            // superframes served (absolute, across schedule rounds)
	metrics *telemetry.Mirror[managedLink] // nil outside DetailLinks; beside state, which the barrier scans also read

	fwd, rev *phy.Link
	pair     *mac.Pair
	sup      *faultinject.Supervisor
	round    int // fault-schedule round (sf / Horizon)
	// bridge syncs inside the pooled step; the fleet reads Fraction()
	// and hands it to the shared FleetSim sequentially at the barrier
	// (ascending link ID — race-free and worker-count invariant).
	bridge *mac.Bridge

	contract int // lanes the link last negotiated to serve at
	drained  int // superframes spent draining
	err      error

	packets [][]byte

	// events buffers this epoch's records; the fleet copies them into
	// its log and clears it at the barrier.
	events eventlog.Log

	// runServe marks the link as scheduled for serving ticks this epoch
	// (set by the fleet's budgeted rotor before the fan-out).
	runServe bool

	// Counters mirrored into the API/telemetry snapshots.
	queued, delivered, retx uint64
}

// A link's records, filed in its event buffer. Each lifecycle edge is a
// record "from->to detail" of one of the recTo kinds.
var (
	stateArg = eventlog.Enum(stateNames[:]...)

	recToOp         = eventlog.NewKind("%s->%s op", stateArg, stateArg)
	recToOnError    = eventlog.NewKind("%s->%s on-error", stateArg, stateArg)
	recToFleetDrain = eventlog.NewKind("%s->%s fleet-drain", stateArg, stateArg)
	recToBringUp    = eventlog.NewKind("%s->%s lanes=%d", stateArg, stateArg, eventlog.Int)
	recToServing    = eventlog.NewKind("%s->%s sf=%d lanes=%d", stateArg, stateArg, eventlog.Int, eventlog.Int)
	recToRecommit   = eventlog.NewKind("%s->%s sf=%d lanes=%d frac=%.4f", stateArg, stateArg, eventlog.Int, eventlog.Int, eventlog.Float)
	recToRetiredNew = eventlog.NewKind("%s->%s sf=0", stateArg, stateArg)
	recToRetired    = eventlog.NewKind("%s->%s sf=%d delivered=%d/%d retx=%d", stateArg, stateArg, eventlog.Int, eventlog.Int, eventlog.Int, eventlog.Int)
	recToDegraded   = eventlog.NewKind("%s->%s sf=%d lanes=%d/%d spares=%d", stateArg, stateArg, eventlog.Int, eventlog.Int, eventlog.Int, eventlog.Int)

	recInject     = eventlog.NewKind("sf=%d inject %v", eventlog.Int, eventlog.Rec)
	recBridge     = eventlog.NewKind("sf=%d bridge lanes=%d frac=%.4f", eventlog.Int, eventlog.Int, eventlog.Float)
	recWitnessErr = eventlog.NewKind("sf=%d scenario=%s witness error: %v", eventlog.Int, eventlog.Str, eventlog.Str)
	recWitness    = eventlog.NewKind("sf=%d scenario=%s witness events=%d round=%d", eventlog.Int, eventlog.Str, eventlog.Int, eventlog.Int)
	recError      = eventlog.NewKind("sf=%d error: %v", eventlog.Int, eventlog.Str)
)

// transition applies a lifecycle edge and opens its record, of kind
// detail, whose detail arguments the caller appends; an illegal edge
// returns the typed error and logs nothing.
func (m *managedLink) transition(to State, detail *eventlog.Kind) (eventlog.Entry, error) {
	if !CanTransition(m.state, to) {
		return eventlog.Entry{}, &TransitionError{Link: m.id, From: m.state, To: to}
	}
	e := m.events.Add(detail).Enum(int(m.state)).Enum(int(to))
	m.state = to
	return e, nil
}

// linkSeed derives the per-link seed from the fleet seed and the link
// ID only — not the admission order — so concurrently admitted links
// get identical behavior no matter which goroutine's request landed
// first.
func linkSeed(fleetSeed int64, id int) int64 {
	return fleetSeed + 1_000_003*int64(id+1)
}

// construct builds the PHY/MAC/Bridge stack. Runs inside the pooled
// step (construction dominates admission cost, so it parallelizes), and
// depends only on (design, seed) — never on timing.
func (m *managedLink) construct() error {
	d := m.design
	fec, err := phy.FECByName(d.FEC)
	if err != nil {
		return err
	}
	mk := func(off int64) (*phy.Link, error) {
		return phy.New(phy.Config{
			Lanes:             d.Lanes,
			Spares:            d.Spares,
			FEC:               fec,
			UnitLen:           d.UnitLen,
			PerChannelBitRate: 2e9,
			Seed:              m.seed + off,
			Workers:           1, // lanes run inline; the fleet pool is the parallelism
		})
	}
	if m.fwd, err = mk(0); err != nil {
		return err
	}
	if m.rev, err = mk(1); err != nil {
		return err
	}

	var pc mac.PairConfig
	pc.Endpoint.SizeFor(d.PacketsPerSF, 0, d.PacketLen)
	if m.pair, err = mac.NewPair(m.fwd, m.rev, pc, nil, nil); err != nil {
		return err
	}

	// Fixed client payloads regenerated from the seed.
	m.packets = phy.SeededFrames(m.seed, d.PacketsPerSF, d.PacketLen)

	m.contract = d.Lanes

	// Health transitions and remaps land in the link's event buffer via
	// the supervisor, capacity changes via the bridge. Injections carry
	// the absolute superframe, not the schedule round's.
	m.sup = faultinject.Supervise(m.fwd, &m.events, nil)
	m.sup.OnInject = func(e faultinject.Event) {
		e.Record(m.events.Add(recInject).Int(m.sf))
	}
	m.bridge = mac.NewBridge(m.fwd)
	m.bridge.OnRenegotiate = func(lanes int, frac float64) {
		m.events.Add(recBridge).Int(m.sf).Int(lanes).Float(frac)
	}

	m.loadSchedule()
	return nil
}

// loadSchedule (re)generates the seeded fault schedule for the current
// horizon round and arms the supervisor on it, At=0 being this
// superframe. A design bound to a registered scenario replays that
// scenario's witness schedule (its environment models mapped to
// per-channel faults) instead of hazard-generated random kills; both
// derive the round's seed the same way, so scenario links are exactly as
// reproducible as hazard links.
func (m *managedLink) loadSchedule() {
	d := m.design
	var sched faultinject.Schedule
	roundSeed := m.seed + int64(m.round)*7907
	if entry, ok := scenario.Lookup(d.Scenario); d.Scenario != "" && ok {
		s, err := scenario.Witness(entry.Spec, d.Lanes+d.Spares, d.Horizon, roundSeed)
		if err != nil {
			// Unreachable for a registered scenario (the library validates);
			// log and serve unfaulted rather than wedging the lifecycle.
			m.events.Add(recWitnessErr).Int(m.sf).Str(entry.ID).Str(err.Error())
		} else {
			sched = s
			m.events.Add(recWitness).Int(m.sf).Str(entry.ID).Int(len(sched.Events)).Int(m.round)
		}
	} else if d.Hazard > 0 {
		rng := rand.New(rand.NewSource(roundSeed))
		sched = faultinject.RandomKills(rng, d.Lanes+d.Spares, d.Hazard, d.Horizon)
	}
	m.sup.Load(sched, m.sf)
}

// tick advances one superframe: inject faults, queue client traffic
// (unless draining), move the pair one round trip, spare out failed
// channels, and renegotiate capacity at the post-remap width.
func (m *managedLink) tick(draining bool) {
	if m.sf >= (m.round+1)*m.design.Horizon {
		m.round++
		m.loadSchedule()
	}
	m.sup.Begin(m.sf)

	if !draining {
		for _, p := range m.packets {
			if err := m.pair.A.SendVC(0, p); err != nil {
				m.fail(fmt.Errorf("send: %w", err))
				return
			}
			m.queued++
		}
	}
	if err := m.pair.Tick(); err != nil {
		m.fail(fmt.Errorf("exchange: %w", err))
		return
	}

	m.sup.Spare()
	m.bridge.Sync()

	m.delivered = m.pair.B.Stats().Delivered
	m.retx = m.pair.A.Stats().Retransmits
	m.sf++
}

// fail records a hard error and forces the link onto the drain path
// (an erroring link cannot serve, but it still exits through the
// lifecycle rather than vanishing).
func (m *managedLink) fail(err error) {
	if m.err == nil {
		m.err = err
		m.events.Add(recError).Int(m.sf).Str(err.Error())
	}
	if m.state != StateDraining && m.state != StateRetired {
		_, _ = m.transition(StateDraining, recToOnError)
	}
}

// step is the pooled per-epoch advance. It only touches link-owned
// state; all cross-link effects (FleetSim publication, collector
// attach/detach) happen at the fleet barrier.
func (m *managedLink) step() {
	switch m.state {
	case StateAdmitted:
		if err := m.construct(); err != nil {
			// Only a config escape can land here (designs are validated at
			// admission); park the link on the drain path.
			m.fail(fmt.Errorf("construct: %w", err))
			return
		}
		e, _ := m.transition(StateBringUp, recToBringUp)
		e.Int(m.design.Lanes)

	case StateBringUp:
		m.tick(false)
		if m.state == StateBringUp && m.sf >= m.design.BringUpSF {
			e, _ := m.transition(StateServing, recToServing)
			e.Int(m.sf).Int(m.fwd.Mapper().NumLanes())
		}
		m.checkDegraded()

	case StateServing, StateDegraded:
		if !m.runServe {
			return
		}
		m.tick(false)
		m.checkDegraded()

	case StateRenegotiating:
		// Commit the degraded width as the new contract. The fraction is
		// the bridge's (relative to the design width), already published.
		m.contract = m.fwd.Mapper().NumLanes()
		e, _ := m.transition(StateServing, recToRecommit)
		e.Int(m.sf).Int(m.contract).Float(m.bridge.Fraction())

	case StateDraining:
		if m.pair == nil {
			_, _ = m.transition(StateRetired, recToRetiredNew)
			return
		}
		m.tick(true)
		m.drained++
		if m.pair.A.Stats().InFlight == 0 || m.drained >= m.design.DrainSF {
			e, _ := m.transition(StateRetired, recToRetired)
			e.Int(m.sf).Int(int(m.delivered)).Int(int(m.queued)).Int(int(m.retx))
		}
	}
}

// checkDegraded flips serving->degraded when sparing has run dry and
// the usable width fell below the negotiated contract.
func (m *managedLink) checkDegraded() {
	if m.state != StateServing || m.fwd == nil {
		return
	}
	lanes := m.fwd.Mapper().NumLanes()
	if lanes < m.contract {
		e, _ := m.transition(StateDegraded, recToDegraded)
		e.Int(m.sf).Int(lanes).Int(m.contract).Int(m.fwd.Mapper().SparesLeft())
	}
}

// lanes returns the current usable width (0 before construction).
func (m *managedLink) lanes() int {
	if m.fwd == nil {
		return 0
	}
	return m.fwd.Mapper().NumLanes()
}

// fraction returns the capacity fraction the bridge last published (0
// before construction).
func (m *managedLink) fraction() float64 {
	if m.bridge == nil {
		return 0
	}
	return m.bridge.Fraction()
}

// LinkInfo is the API/inspection snapshot of one managed link.
type LinkInfo struct {
	ID        int     `json:"id"`
	State     string  `json:"state"`
	TopoLink  int     `json:"topo_link"`
	Seed      int64   `json:"seed"`
	SF        int     `json:"sf"`
	Lanes     int     `json:"lanes"`
	Contract  int     `json:"contract_lanes"`
	Nominal   int     `json:"nominal_lanes"`
	Fraction  float64 `json:"fraction"`
	Queued    uint64  `json:"queued"`
	Delivered uint64  `json:"delivered"`
	Retx      uint64  `json:"retransmits"`
	Scenario  string  `json:"scenario,omitempty"`
	Err       string  `json:"err,omitempty"`
}

func (m *managedLink) info() LinkInfo {
	info := LinkInfo{
		ID: m.id, State: m.state.String(), TopoLink: m.topoID, Seed: m.seed,
		SF: m.sf, Lanes: m.lanes(), Contract: m.contract, Nominal: m.design.Lanes,
		Fraction: m.fraction(), Queued: m.queued, Delivered: m.delivered, Retx: m.retx,
		Scenario: m.design.Scenario,
	}
	if m.err != nil {
		info.Err = m.err.Error()
	}
	return info
}
