package telemetry

import (
	"strconv"

	"mosaic/internal/phy"
)

// linkView is what the link-level rows read: the running sum of every
// observed Exchange, and the link for its accessors and its monitor's
// transition counts.
type linkView struct {
	sum  phy.ExchangeStats
	link *phy.Link
}

var linkRows = []Row[linkView]{
	{Name: "mosaic_link_frames_in_total", Help: "frames offered to the link per Exchange", Count: func(v *linkView) uint64 { return uint64(v.sum.FramesIn) }},
	{Name: "mosaic_link_frames_delivered_total", Help: "frames recovered intact by the far end", Count: func(v *linkView) uint64 { return uint64(v.sum.FramesDelivered) }},
	{Name: "mosaic_link_frames_lost_total", Help: "frames missing entirely", Count: func(v *linkView) uint64 { return uint64(v.sum.FramesLost) }},
	{Name: "mosaic_link_frames_corrupted_total", Help: "frames delivered damaged (FCS failure)", Count: func(v *linkView) uint64 { return uint64(v.sum.FramesCorrupted) }},
	{Name: "mosaic_link_units_lost_total", Count: func(v *linkView) uint64 { return uint64(v.sum.UnitsLost) }},
	{Name: "mosaic_link_units_total", Count: func(v *linkView) uint64 { return uint64(v.sum.UnitsTotal) }},
	{Name: "mosaic_link_fec_corrections_total", Help: "bit errors corrected by per-channel FEC", Count: func(v *linkView) uint64 { return uint64(v.sum.Corrections) }},
	{Name: "mosaic_link_wire_bytes_total", Count: func(v *linkView) uint64 { return uint64(v.sum.WireBytes) }},
	{Name: "mosaic_link_payload_bytes_total", Count: func(v *linkView) uint64 { return uint64(v.sum.PayloadBytes) }},
	{Name: "mosaic_link_superframes", Help: "completed Exchange rounds", Level: func(v *linkView) float64 { return float64(v.link.Superframes()) }},
	{Name: "mosaic_link_lanes_active", Help: "logical lanes currently carrying traffic", Level: func(v *linkView) float64 { return float64(v.link.Mapper().NumLanes()) }},
	{Name: "mosaic_link_spares_left", Help: "spare physical channels remaining", Level: func(v *linkView) float64 { return float64(v.link.Mapper().SparesLeft()) }},
	{Name: "mosaic_link_aggregate_rate_bps", Level: func(v *linkView) float64 { return v.link.AggregateRate() }},
	{Name: "mosaic_monitor_transitions_total", Help: "channel health state transitions", Labels: []string{"from", "healthy", "to", "degraded"}, Count: func(v *linkView) uint64 { return v.link.Monitor().Transitions().HealthyToDegraded }},
	{Name: "mosaic_monitor_transitions_total", Labels: []string{"from", "degraded", "to", "healthy"}, Count: func(v *linkView) uint64 { return v.link.Monitor().Transitions().DegradedToHealthy }},
	{Name: "mosaic_monitor_transitions_total", Labels: []string{"from", "degraded", "to", "failed"}, Count: func(v *linkView) uint64 { return v.link.Monitor().Transitions().DegradedToFailed }},
	{Name: "mosaic_monitor_transitions_total", Labels: []string{"from", "healthy", "to", "failed"}, Count: func(v *linkView) uint64 { return v.link.Monitor().Transitions().HealthyToFailed }},
}

// channelView is one physical channel's monitor health plus whether its
// transmitter has been killed.
type channelView struct {
	phy.ChannelHealth
	dead bool
}

var channelRows = []Row[channelView]{
	{Name: "mosaic_channel_frames_ok_total", Count: func(v *channelView) uint64 { return v.FramesOK }},
	{Name: "mosaic_channel_frames_lost_total", Count: func(v *channelView) uint64 { return v.FramesLost }},
	{Name: "mosaic_channel_fec_corrections_total", Count: func(v *channelView) uint64 { return v.Corrections }},
	{Name: "mosaic_channel_bits_observed_total", Count: func(v *channelView) uint64 { return v.BitsObserved }},
	{Name: "mosaic_channel_ber_estimate", Help: "estimated pre-FEC BER from FEC corrections (0 with ber_valid 0 = no data, not perfect)", Level: func(v *channelView) float64 { return v.EstimatedBER() }},
	{Name: "mosaic_channel_ber_valid", Help: "1 when the BER estimate is backed by decoded bits", Level: func(v *channelView) float64 { return level(v.HasBERData()) }},
	{Name: "mosaic_channel_loss_ratio", Help: "lifetime fraction of expected frames that never arrived", Level: func(v *channelView) float64 { return v.LossRatio() }},
	{Name: "mosaic_channel_state", Help: "monitor classification: 0 healthy, 1 degraded, 2 failed", Level: func(v *channelView) float64 { return float64(v.State) }},
	{Name: "mosaic_channel_dead", Help: "1 when the transmitter has been killed", Level: func(v *channelView) float64 { return level(v.dead) }},
}

func level(b bool) float64 {
	if b {
		return 1
	}
	return 0
}

// LinkCollector mirrors one phy.Link into a Registry: per-exchange frame
// and FEC counters, lane/spare gauges, the monitor's transition counts
// and per-channel health (BER estimate, loss, state, dead bit).
//
// It is push-based to preserve both determinism and race safety: the
// goroutine driving the link calls ObserveExchange/Sync at superframe
// boundaries (where injections and remaps already happen), so the link
// itself is never touched from a scrape.
type LinkCollector struct {
	view     linkView
	link     *Mirror[linkView]
	ch       channelView // reused, so Sync allocates nothing
	channels []*Mirror[channelView]
}

// NewLinkCollector registers link's metrics in r and returns the
// collector. Monitor-derived counters count from attach time: the
// monitor's current cumulative values become the baseline, so attaching
// mid-life does not replay history into the registry.
func NewLinkCollector(r *Registry, link *phy.Link) *LinkCollector {
	c := &LinkCollector{view: linkView{link: link}, link: NewMirror(r, linkRows)}
	c.channels = make([]*Mirror[channelView], link.Config().Lanes+link.Config().Spares)
	for i := range c.channels {
		c.channels[i] = NewMirror(r, channelRows, "channel", strconv.Itoa(i))
	}
	c.link.Baseline(&c.view)
	for i, m := range c.channels {
		m.Baseline(c.channel(i))
	}
	c.Sync()
	return c
}

// ObserveExchange folds one Exchange's aggregate statistics; the next
// Sync publishes them. Call it from the goroutine driving the link, once
// per superframe.
func (c *LinkCollector) ObserveExchange(st phy.ExchangeStats) {
	sum := &c.view.sum
	sum.FramesIn += st.FramesIn
	sum.FramesDelivered += st.FramesDelivered
	sum.FramesLost += st.FramesLost
	sum.FramesCorrupted += st.FramesCorrupted
	sum.UnitsLost += st.UnitsLost
	sum.UnitsTotal += st.UnitsTotal
	sum.Corrections += st.Corrections
	sum.WireBytes += st.WireBytes
	sum.PayloadBytes += st.PayloadBytes
}

// Sync publishes the link and every channel as they stand. Call it from
// the goroutine driving the link (typically right after
// ObserveExchange); it must not run concurrently with Exchange.
func (c *LinkCollector) Sync() {
	c.link.Sync(&c.view)
	for i, m := range c.channels {
		m.Sync(c.channel(i))
	}
}

// channel reads physical channel i into the reusable view.
func (c *LinkCollector) channel(i int) *channelView {
	l := c.view.link
	c.ch = channelView{l.Monitor().Health(i), l.ChannelDead(i)}
	return &c.ch
}
