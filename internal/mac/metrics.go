package mac

import (
	"strconv"

	"mosaic/internal/telemetry"
)

// The MAC series are row tables over the structs they read — Stats (plus
// one derived ratio), VCStats and Bridge — published through
// telemetry.Mirror. They live beside those structs because telemetry
// cannot import mac (mac -> faultinject -> telemetry).

// endpointView is one endpoint snapshot plus the retransmitted fraction
// of the data frames sent since the previous sync.
type endpointView struct {
	Stats
	retxRate float64
}

var endpointRows = []telemetry.Row[endpointView]{
	{Name: "mosaic_mac_packets_queued_total", Count: func(s *endpointView) uint64 { return s.PacketsQueued }},
	{Name: "mosaic_mac_data_frames_tx_total", Count: func(s *endpointView) uint64 { return s.DataTx }},
	{Name: "mosaic_mac_retransmits_total", Help: "LLR data frames re-sent by the ARQ", Count: func(s *endpointView) uint64 { return s.Retransmits }},
	{Name: "mosaic_mac_pure_acks_tx_total", Count: func(s *endpointView) uint64 { return s.AcksTx }},
	{Name: "mosaic_mac_data_frames_rx_total", Count: func(s *endpointView) uint64 { return s.DataRx }},
	{Name: "mosaic_mac_delivered_total", Help: "packets delivered in order to the client", Count: func(s *endpointView) uint64 { return s.Delivered }},
	{Name: "mosaic_mac_duplicates_total", Count: func(s *endpointView) uint64 { return s.Duplicates }},
	{Name: "mosaic_mac_discarded_total", Help: "data frames dropped with no reorder room (ahead of window)", Count: func(s *endpointView) uint64 { return s.Discarded }},
	{Name: "mosaic_mac_reordered_total", Help: "out-of-order data frames parked in the SR reorder buffer", Count: func(s *endpointView) uint64 { return s.Reordered }},
	{Name: "mosaic_mac_acks_rx_total", Count: func(s *endpointView) uint64 { return s.AcksRx }},
	{Name: "mosaic_mac_sacks_rx_total", Count: func(s *endpointView) uint64 { return s.SacksRx }},
	{Name: "mosaic_mac_unknown_vc_total", Count: func(s *endpointView) uint64 { return s.UnknownVC }},
	{Name: "mosaic_mac_credit_stalls_total", Help: "superframes where data waited on a full replay window", Count: func(s *endpointView) uint64 { return s.CreditStalls }},
	{Name: "mosaic_mac_timeouts_total", Count: func(s *endpointView) uint64 { return s.Timeouts }},
	{Name: "mosaic_mac_deframed_frames_total", Count: func(s *endpointView) uint64 { return s.Deframe.Frames }},
	{Name: "mosaic_mac_crc_rejects_total", Help: "MAC frames dropped by the deframer CRC check", Count: func(s *endpointView) uint64 { return s.Deframe.CRCRejects }},
	{Name: "mosaic_mac_header_rejects_total", Count: func(s *endpointView) uint64 { return s.Deframe.HeaderRejects }},
	{Name: "mosaic_mac_resync_skipped_bytes_total", Count: func(s *endpointView) uint64 { return s.Deframe.SkippedBytes }},
	{Name: "mosaic_mac_replay_occupancy", Help: "unacked frames in the replay ring", Level: func(s *endpointView) float64 { return float64(s.InFlight) }},
	{Name: "mosaic_mac_queue_depth", Level: func(s *endpointView) float64 { return float64(s.QueueDepth) }},
	{Name: "mosaic_mac_reorder_depth", Help: "frames parked in the SR reorder buffer", Level: func(s *endpointView) float64 { return float64(s.ReorderDepth) }},
	{Name: "mosaic_mac_retx_rate", Help: "retransmitted fraction of data frames since the last sync", Level: func(s *endpointView) float64 { return s.retxRate }},
}

var vcRows = []telemetry.Row[VCStats]{
	{Name: "mosaic_mac_vc_packets_queued_total", Count: func(s *VCStats) uint64 { return s.PacketsQueued }},
	{Name: "mosaic_mac_vc_data_frames_tx_total", Count: func(s *VCStats) uint64 { return s.DataTx }},
	{Name: "mosaic_mac_vc_retransmits_total", Count: func(s *VCStats) uint64 { return s.Retransmits }},
	{Name: "mosaic_mac_vc_delivered_total", Help: "per-VC packets delivered in order to the client", Count: func(s *VCStats) uint64 { return s.Delivered }},
	{Name: "mosaic_mac_vc_duplicates_total", Count: func(s *VCStats) uint64 { return s.Duplicates }},
	{Name: "mosaic_mac_vc_discarded_total", Count: func(s *VCStats) uint64 { return s.Discarded }},
	{Name: "mosaic_mac_vc_reordered_total", Count: func(s *VCStats) uint64 { return s.Reordered }},
	{Name: "mosaic_mac_vc_credit_stalls_total", Count: func(s *VCStats) uint64 { return s.CreditStalls }},
	{Name: "mosaic_mac_vc_timeouts_total", Count: func(s *VCStats) uint64 { return s.Timeouts }},
	{Name: "mosaic_mac_vc_class", Help: "QoS class assigned to the virtual channel (0 = highest)", Level: func(s *VCStats) float64 { return float64(s.Class) }},
	{Name: "mosaic_mac_vc_replay_occupancy", Level: func(s *VCStats) float64 { return float64(s.InFlight) }},
	{Name: "mosaic_mac_vc_queue_depth", Level: func(s *VCStats) float64 { return float64(s.QueueDepth) }},
	{Name: "mosaic_mac_vc_reorder_depth", Level: func(s *VCStats) float64 { return float64(s.ReorderDepth) }},
}

var bridgeRows = []telemetry.Row[Bridge]{
	{Name: "mosaic_mac_renegotiations_total", Help: "capacity renegotiations published by the MAC bridge", Count: (*Bridge).Renegotiations},
	{Name: "mosaic_mac_capacity_fraction", Help: "capacity fraction last published by the MAC bridge", Level: (*Bridge).Fraction},
}

// endpointMirror is one endpoint's mirror, the start of its retx-rate
// window, and its VCs' mirrors.
type endpointMirror struct {
	*telemetry.Mirror[endpointView]
	retx, dataTx uint64       // Stats.Retransmits / DataTx at the previous sync
	view         endpointView // reused, so a sync allocates nothing
	vcs          []*telemetry.Mirror[VCStats]
}

// collector pushes a session's MAC snapshots into a telemetry.Registry.
// Every mirror is built with the session — its pair has two endpoints,
// "a" and "b", and a fixed VC count; all writes happen on the caller's
// goroutine at superframe boundaries, scrapes read atomics.
type collector struct {
	eps    [2]endpointMirror // "a", "b"
	bridge *telemetry.Mirror[Bridge]
	vc     VCStats // reused view
}

func newCollector(reg *telemetry.Registry, p *Pair) *collector {
	c := &collector{bridge: telemetry.NewMirror(reg, bridgeRows)}
	c.bridge.Sync(&Bridge{lastFrac: 1}) // full width until a bridge says otherwise
	eps := [2]*Endpoint{p.A, p.B}
	for i, label := range [2]string{"a", "b"} {
		m := &c.eps[i]
		m.Mirror = telemetry.NewMirror(reg, endpointRows, "endpoint", label)
		for vc := range eps[i].NumVCs() {
			m.vcs = append(m.vcs, telemetry.NewMirror(reg, vcRows, "endpoint", label, "vc", strconv.Itoa(vc)))
		}
	}
	return c
}

// sync publishes both endpoints, their VCs and, when there is one, the
// bridge.
func (c *collector) sync(p *Pair, b *Bridge) {
	for i, e := range [2]*Endpoint{p.A, p.B} {
		m := &c.eps[i]
		m.sync(e.Stats())
		for vc, vm := range m.vcs {
			c.vc = e.VCSnapshot(vc)
			vm.Sync(&c.vc)
		}
	}
	if b != nil {
		c.bridge.Sync(b)
	}
}

// sync publishes one endpoint snapshot; the retx-rate gauge reflects only
// the window since the previous sync (0 when nothing was sent).
func (m *endpointMirror) sync(s Stats) {
	dRetx := s.Retransmits - m.retx
	dData := s.DataTx - m.dataTx + dRetx
	m.retx, m.dataTx = s.Retransmits, s.DataTx
	m.view = endpointView{Stats: s}
	if dData > 0 {
		m.view.retxRate = float64(dRetx) / float64(dData)
	}
	m.Sync(&m.view)
}
