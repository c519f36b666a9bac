package mac

import "mosaic/internal/phy"

// Bridge is the capacity-renegotiation half of the MAC: it turns a PHY
// link's usable width into the capacity fraction a flow simulator should
// run that link at, renegotiated whenever sparing consumes lanes — the
// network layer learns about degradation the same way a real switch
// would, from the link's own adaptation machinery.
//
// The bridge is a pull at both ends: whoever drives the link calls Sync
// at the superframe boundary, after the sparing step has remapped, and
// whoever owns the flow simulator reads Fraction and hands it over (the
// simulator ignores an unchanged value). Any number of failures between
// two Syncs are therefore one renegotiation at the settled width.
type Bridge struct {
	link *phy.Link

	lastFrac       float64 // fraction last renegotiated; the bridge's whole memory
	renegotiations uint64

	// OnRenegotiate, when non-nil, observes each renegotiation as it
	// happens, for the caller's event log.
	OnRenegotiate func(lanes int, frac float64)
}

// NewBridge starts a bridge on link at fraction 1.0. The reference is
// the link's configured lane count, not its current one: a flow
// simulator starts its links at 1.0, so the first Sync on a link that
// has already shed lanes renegotiates down to the real fraction.
func NewBridge(link *phy.Link) *Bridge {
	return &Bridge{link: link, lastFrac: 1}
}

// Sync reads the link's current lane count and, if the usable fraction
// moved since the last Sync, records the renegotiation and tells the
// OnRenegotiate observer. A Sync with nothing changed does nothing.
func (b *Bridge) Sync() {
	lanes := b.link.Mapper().NumLanes()
	frac := float64(lanes) / float64(b.link.Config().Lanes)
	if frac == b.lastFrac {
		return // spares absorbed any failure; width unchanged
	}
	b.lastFrac = frac
	b.renegotiations++
	if b.OnRenegotiate != nil {
		b.OnRenegotiate(lanes, frac)
	}
}

// Fraction returns the capacity fraction last renegotiated (1.0 until
// the first) — the bridge's one way out to a flow simulator.
func (b *Bridge) Fraction() float64 { return b.lastFrac }

// Renegotiations returns how many capacity changes there have been.
func (b *Bridge) Renegotiations() uint64 { return b.renegotiations }
