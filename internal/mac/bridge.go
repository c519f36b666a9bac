package mac

import "mosaic/internal/phy"

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

// Bridge is the capacity-renegotiation half of the MAC: it republishes
// a PHY link's usable width into a flow simulator whenever sparing
// consumes lanes. This replaces hand-wired SetLinkCapacityFraction
// calls — the network layer learns about degradation the same way a
// real switch would, from the link's own adaptation machinery.
//
// The bridge is a pull: whoever drives the link calls Sync at the
// superframe boundary, after the sparing step has remapped, and the
// bridge publishes only if the fraction moved since the last Sync. Any
// number of failures between two Syncs are therefore one renegotiation
// at the settled width.
type Bridge struct {
	link   *phy.Link
	sink   CapacitySink
	linkID int

	lastFrac       float64 // fraction last published; the bridge's whole memory
	renegotiations uint64

	// OnRenegotiate, when non-nil, observes each published change (for
	// event logs and telemetry). Called after the sink is updated.
	OnRenegotiate func(lanes int, frac float64)
}

// NewBridge wires a bridge between link and sink for the given flow-sim
// link ID. The 1.0 reference is the link's configured lane count, not
// its current one: a sink starts at 1.0, so the first Sync on a link
// that has already shed lanes publishes the real fraction.
func NewBridge(link *phy.Link, sink CapacitySink, linkID int) *Bridge {
	return &Bridge{link: link, sink: sink, linkID: linkID, lastFrac: 1}
}

// Sync reads the link's current lane count and, if the usable fraction
// moved since the last Sync, publishes it to the sink and the
// OnRenegotiate observer. A Sync with nothing changed does nothing.
func (b *Bridge) Sync() {
	lanes := b.link.Mapper().NumLanes()
	frac := float64(lanes) / float64(b.link.Config().Lanes)
	if frac == b.lastFrac {
		return // spares absorbed any failure; width unchanged
	}
	b.lastFrac = frac
	b.renegotiations++
	b.sink.SetLinkCapacityFraction(b.linkID, frac)
	if b.OnRenegotiate != nil {
		b.OnRenegotiate(lanes, frac)
	}
}

// Fraction returns the capacity fraction last published (1.0 until the
// first renegotiation).
func (b *Bridge) Fraction() float64 { return b.lastFrac }

// Renegotiations returns how many capacity changes have been published.
func (b *Bridge) Renegotiations() uint64 { return b.renegotiations }
