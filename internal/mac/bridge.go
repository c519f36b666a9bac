package mac

import (
	"mosaic/internal/phy"
	"mosaic/internal/sim"
)

// CapacitySink is where the bridge publishes renegotiated capacity.
// netsim.FlowSim satisfies it; the indirection keeps the MAC layer
// protocol-agnostic — it signals width changes without knowing what
// consumes them.
type CapacitySink interface {
	SetLinkCapacityFraction(linkID int, frac float64)
}

// DiscardCapacity is the CapacitySink of a bridge with no network
// simulator attached: renegotiations land only in the bridge's own
// counters and its OnRenegotiate observer.
type DiscardCapacity struct{}

// SetLinkCapacityFraction implements CapacitySink.
func (DiscardCapacity) SetLinkCapacityFraction(int, float64) {}

// VCCapacitySink receives the per-virtual-channel breakdown of a
// renegotiation: each VC's share of the degraded link, split by QoS
// class weight (the same weights the MAC scheduler uses, so the network
// layer's view of priority matches what the wire actually does).
// netsim.VCLinkMap satisfies it.
type VCCapacitySink interface {
	SetVCCapacityFraction(linkID, vc int, frac float64)
}

// Bridge is the capacity-renegotiation half of the MAC: it watches a
// PHY link's health monitor and republishes the link's usable width
// into a flow simulator whenever sparing consumes lanes. This replaces
// hand-wired SetLinkCapacityFraction calls — the network layer learns
// about degradation the same way a real switch would, from the link's
// own adaptation machinery.
//
// Timing: the monitor fires its transition hook *before* the mapper
// remaps (FailChannel marks, then remaps), so the hook must not read
// the lane count synchronously. Notify instead schedules a zero-delay
// sync on the event engine; the engine's FIFO tie-break runs it after
// the current callback — and the remap — completes. Multiple failures
// in one instant coalesce into a single renegotiation.
type Bridge struct {
	link   *phy.Link
	sink   CapacitySink
	linkID int
	eng    *sim.Engine

	nominal  int // lane count at install time; the 1.0 reference
	lastFrac float64
	pending  bool

	renegotiations uint64

	// VCSink, when non-nil, additionally receives each VC's weighted
	// share of every renegotiated fraction (set alongside VCClasses
	// before Install).
	VCSink VCCapacitySink
	// VCClasses assigns the QoS class per VC for the VCSink split; nil
	// with a non-nil VCSink means one class-0 VC.
	VCClasses []uint8

	// OnRenegotiate, when non-nil, observes each published change (for
	// event logs and telemetry). Called after the sink is updated.
	OnRenegotiate func(at sim.Time, lanes int, frac float64)

	prevHook func(physical int, from, to phy.ChannelState)
}

// NewBridge wires a bridge between link and sink for the given flow-sim
// link ID. Call Install to start observing monitor transitions.
func NewBridge(link *phy.Link, sink CapacitySink, linkID int, eng *sim.Engine) *Bridge {
	return &Bridge{
		link:     link,
		sink:     sink,
		linkID:   linkID,
		eng:      eng,
		nominal:  link.Mapper().NumLanes(),
		lastFrac: 1,
	}
}

// Install subscribes the bridge to the link's monitor. The monitor has
// a single hook slot, so any previously installed hook is chained:
// it still runs, first, on every transition.
func (b *Bridge) Install() {
	b.prevHook = b.link.Monitor().TransitionHook()
	b.link.Monitor().SetTransitionHook(func(physical int, from, to phy.ChannelState) {
		if b.prevHook != nil {
			b.prevHook(physical, from, to)
		}
		if to == phy.Failed {
			b.Notify()
		}
	})
}

// Notify schedules a capacity sync at the current simulated time (after
// the in-flight event completes). Safe to call redundantly; pending
// notifications coalesce.
func (b *Bridge) Notify() {
	if b.pending {
		return
	}
	b.pending = true
	b.eng.After(0, b.sync)
}

func (b *Bridge) sync() {
	b.pending = false
	lanes := b.link.Mapper().NumLanes()
	frac := float64(lanes) / float64(b.nominal)
	if frac == b.lastFrac {
		return // spares absorbed the failure; width unchanged
	}
	b.lastFrac = frac
	b.renegotiations++
	b.sink.SetLinkCapacityFraction(b.linkID, frac)
	b.publishVCs(frac)
	if b.OnRenegotiate != nil {
		b.OnRenegotiate(b.eng.Now(), lanes, frac)
	}
}

// publishVCs splits a renegotiated link fraction across the virtual
// channels in proportion to their QoS class weights — the share each VC
// would win from the MAC's weighted scheduler under full load.
func (b *Bridge) publishVCs(frac float64) {
	if b.VCSink == nil {
		return
	}
	classes := b.VCClasses
	if len(classes) == 0 {
		classes = []uint8{0}
	}
	total := 0
	for _, class := range classes {
		total += ClassWeight(class)
	}
	if total == 0 {
		return
	}
	for vc, class := range classes {
		b.VCSink.SetVCCapacityFraction(b.linkID, vc, frac*float64(ClassWeight(class))/float64(total))
	}
}

// Fraction returns the capacity fraction last published (1.0 until the
// first renegotiation).
func (b *Bridge) Fraction() float64 { return b.lastFrac }

// Renegotiations returns how many capacity changes have been published.
func (b *Bridge) Renegotiations() uint64 { return b.renegotiations }
