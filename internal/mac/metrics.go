package mac

import (
	"strconv"

	"mosaic/internal/telemetry"
)

// macEndpoint holds the metric handles and previous snapshot for one
// labeled endpoint.
type macEndpoint struct {
	packets, dataTx, retx, acksTx      *telemetry.Counter
	dataRx, delivered, dups, discarded *telemetry.Counter
	reordered, acksRx, sacksRx         *telemetry.Counter
	unknownVC, stalls, timeouts        *telemetry.Counter
	deframed, crcRej, hdrRej, skipped  *telemetry.Counter

	inFlight, queueDepth, reorderDepth, retxRate *telemetry.Gauge

	prev Stats
}

// macVC holds the metric handles and previous snapshot for one
// (endpoint, virtual channel) pair.
type macVC struct {
	packets, dataTx, retx, delivered *telemetry.Counter
	dups, discarded, reordered       *telemetry.Counter
	stalls, timeouts                 *telemetry.Counter

	class, inFlight, queueDepth, reorderDepth *telemetry.Gauge

	prev VCStats
}

// collector pushes MAC endpoint snapshots into a telemetry.Registry,
// following the same discipline as telemetry.LinkCollector: handles are
// created up front, cumulative snapshot counters become registry deltas
// against the previous sync, and gauges are overwritten. All writes
// happen on the caller's goroutine at superframe boundaries; scrapes
// read atomics. It lives beside the Stats it reads because telemetry
// cannot import mac (mac -> faultinject -> telemetry).
type collector struct {
	reg       *telemetry.Registry
	endpoints map[string]*macEndpoint
	vcs       map[string]*macVC

	renegotiations *telemetry.Counter
	capacityFrac   *telemetry.Gauge
	prevReneg      uint64
}

// newCollector registers the MAC metric set (with help text) and
// returns a collector. Endpoint handles are created lazily per label on
// first sync; bridge-level metrics are singletons.
func newCollector(reg *telemetry.Registry) *collector {
	reg.Help("mosaic_mac_retransmits_total", "LLR data frames re-sent by the ARQ")
	reg.Help("mosaic_mac_delivered_total", "packets delivered in order to the client")
	reg.Help("mosaic_mac_discarded_total", "data frames dropped with no reorder room (ahead of window)")
	reg.Help("mosaic_mac_reordered_total", "out-of-order data frames parked in the SR reorder buffer")
	reg.Help("mosaic_mac_credit_stalls_total", "superframes where data waited on a full replay window")
	reg.Help("mosaic_mac_crc_rejects_total", "MAC frames dropped by the deframer CRC check")
	reg.Help("mosaic_mac_replay_occupancy", "unacked frames in the replay ring")
	reg.Help("mosaic_mac_reorder_depth", "frames parked in the SR reorder buffer")
	reg.Help("mosaic_mac_retx_rate", "retransmitted fraction of data frames since the last sync")
	reg.Help("mosaic_mac_renegotiations_total", "capacity renegotiations published by the MAC bridge")
	reg.Help("mosaic_mac_capacity_fraction", "capacity fraction last published by the MAC bridge")
	reg.Help("mosaic_mac_vc_delivered_total", "per-VC packets delivered in order to the client")
	reg.Help("mosaic_mac_vc_class", "QoS class assigned to the virtual channel (0 = highest)")
	c := &collector{
		reg:            reg,
		endpoints:      make(map[string]*macEndpoint),
		vcs:            make(map[string]*macVC),
		renegotiations: reg.Counter("mosaic_mac_renegotiations_total"),
		capacityFrac:   reg.Gauge("mosaic_mac_capacity_fraction"),
	}
	c.capacityFrac.Set(1)
	return c
}

func (c *collector) endpoint(label string) *macEndpoint {
	if ep, ok := c.endpoints[label]; ok {
		return ep
	}
	r := c.reg
	ep := &macEndpoint{
		packets:      r.Counter("mosaic_mac_packets_queued_total", "endpoint", label),
		dataTx:       r.Counter("mosaic_mac_data_frames_tx_total", "endpoint", label),
		retx:         r.Counter("mosaic_mac_retransmits_total", "endpoint", label),
		acksTx:       r.Counter("mosaic_mac_pure_acks_tx_total", "endpoint", label),
		dataRx:       r.Counter("mosaic_mac_data_frames_rx_total", "endpoint", label),
		delivered:    r.Counter("mosaic_mac_delivered_total", "endpoint", label),
		dups:         r.Counter("mosaic_mac_duplicates_total", "endpoint", label),
		discarded:    r.Counter("mosaic_mac_discarded_total", "endpoint", label),
		reordered:    r.Counter("mosaic_mac_reordered_total", "endpoint", label),
		acksRx:       r.Counter("mosaic_mac_acks_rx_total", "endpoint", label),
		sacksRx:      r.Counter("mosaic_mac_sacks_rx_total", "endpoint", label),
		unknownVC:    r.Counter("mosaic_mac_unknown_vc_total", "endpoint", label),
		stalls:       r.Counter("mosaic_mac_credit_stalls_total", "endpoint", label),
		timeouts:     r.Counter("mosaic_mac_timeouts_total", "endpoint", label),
		deframed:     r.Counter("mosaic_mac_deframed_frames_total", "endpoint", label),
		crcRej:       r.Counter("mosaic_mac_crc_rejects_total", "endpoint", label),
		hdrRej:       r.Counter("mosaic_mac_header_rejects_total", "endpoint", label),
		skipped:      r.Counter("mosaic_mac_resync_skipped_bytes_total", "endpoint", label),
		inFlight:     r.Gauge("mosaic_mac_replay_occupancy", "endpoint", label),
		queueDepth:   r.Gauge("mosaic_mac_queue_depth", "endpoint", label),
		reorderDepth: r.Gauge("mosaic_mac_reorder_depth", "endpoint", label),
		retxRate:     r.Gauge("mosaic_mac_retx_rate", "endpoint", label),
	}
	c.endpoints[label] = ep
	return ep
}

func (c *collector) vc(label string, vc int) *macVC {
	key := label + "/" + strconv.Itoa(vc)
	if h, ok := c.vcs[key]; ok {
		return h
	}
	r := c.reg
	vcLabel := strconv.Itoa(vc)
	h := &macVC{
		packets:      r.Counter("mosaic_mac_vc_packets_queued_total", "endpoint", label, "vc", vcLabel),
		dataTx:       r.Counter("mosaic_mac_vc_data_frames_tx_total", "endpoint", label, "vc", vcLabel),
		retx:         r.Counter("mosaic_mac_vc_retransmits_total", "endpoint", label, "vc", vcLabel),
		delivered:    r.Counter("mosaic_mac_vc_delivered_total", "endpoint", label, "vc", vcLabel),
		dups:         r.Counter("mosaic_mac_vc_duplicates_total", "endpoint", label, "vc", vcLabel),
		discarded:    r.Counter("mosaic_mac_vc_discarded_total", "endpoint", label, "vc", vcLabel),
		reordered:    r.Counter("mosaic_mac_vc_reordered_total", "endpoint", label, "vc", vcLabel),
		stalls:       r.Counter("mosaic_mac_vc_credit_stalls_total", "endpoint", label, "vc", vcLabel),
		timeouts:     r.Counter("mosaic_mac_vc_timeouts_total", "endpoint", label, "vc", vcLabel),
		class:        r.Gauge("mosaic_mac_vc_class", "endpoint", label, "vc", vcLabel),
		inFlight:     r.Gauge("mosaic_mac_vc_replay_occupancy", "endpoint", label, "vc", vcLabel),
		queueDepth:   r.Gauge("mosaic_mac_vc_queue_depth", "endpoint", label, "vc", vcLabel),
		reorderDepth: r.Gauge("mosaic_mac_vc_reorder_depth", "endpoint", label, "vc", vcLabel),
	}
	c.vcs[key] = h
	return h
}

// sync publishes one endpoint snapshot: counters advance by the delta
// against the previous snapshot (so restarts of the underlying endpoint
// never decrease registry counters), gauges are overwritten, and the
// retx-rate gauge reflects only the window since the last sync.
func (c *collector) sync(label string, s Stats) {
	ep := c.endpoint(label)
	p := ep.prev
	ep.packets.Add(s.PacketsQueued - p.PacketsQueued)
	ep.dataTx.Add(s.DataTx - p.DataTx)
	ep.retx.Add(s.Retransmits - p.Retransmits)
	ep.acksTx.Add(s.AcksTx - p.AcksTx)
	ep.dataRx.Add(s.DataRx - p.DataRx)
	ep.delivered.Add(s.Delivered - p.Delivered)
	ep.dups.Add(s.Duplicates - p.Duplicates)
	ep.discarded.Add(s.Discarded - p.Discarded)
	ep.reordered.Add(s.Reordered - p.Reordered)
	ep.acksRx.Add(s.AcksRx - p.AcksRx)
	ep.sacksRx.Add(s.SacksRx - p.SacksRx)
	ep.unknownVC.Add(s.UnknownVC - p.UnknownVC)
	ep.stalls.Add(s.CreditStalls - p.CreditStalls)
	ep.timeouts.Add(s.Timeouts - p.Timeouts)
	ep.deframed.Add(s.Deframe.Frames - p.Deframe.Frames)
	ep.crcRej.Add(s.Deframe.CRCRejects - p.Deframe.CRCRejects)
	ep.hdrRej.Add(s.Deframe.HeaderRejects - p.Deframe.HeaderRejects)
	ep.skipped.Add(s.Deframe.SkippedBytes - p.Deframe.SkippedBytes)

	ep.inFlight.SetInt(int64(s.InFlight))
	ep.queueDepth.SetInt(int64(s.QueueDepth))
	ep.reorderDepth.SetInt(int64(s.ReorderDepth))
	dRetx := s.Retransmits - p.Retransmits
	dData := s.DataTx - p.DataTx + dRetx
	if dData > 0 {
		ep.retxRate.Set(float64(dRetx) / float64(dData))
	} else {
		ep.retxRate.Set(0)
	}
	ep.prev = s
}

// syncVC publishes one virtual channel's snapshot for a labeled
// endpoint, with the same delta-against-previous discipline as sync.
func (c *collector) syncVC(label string, vcIdx int, s VCStats) {
	h := c.vc(label, vcIdx)
	p := h.prev
	h.packets.Add(s.PacketsQueued - p.PacketsQueued)
	h.dataTx.Add(s.DataTx - p.DataTx)
	h.retx.Add(s.Retransmits - p.Retransmits)
	h.delivered.Add(s.Delivered - p.Delivered)
	h.dups.Add(s.Duplicates - p.Duplicates)
	h.discarded.Add(s.Discarded - p.Discarded)
	h.reordered.Add(s.Reordered - p.Reordered)
	h.stalls.Add(s.CreditStalls - p.CreditStalls)
	h.timeouts.Add(s.Timeouts - p.Timeouts)

	h.class.SetInt(int64(s.Class))
	h.inFlight.SetInt(int64(s.InFlight))
	h.queueDepth.SetInt(int64(s.QueueDepth))
	h.reorderDepth.SetInt(int64(s.ReorderDepth))
	h.prev = s
}

// syncBridge publishes bridge-level renegotiation state (cumulative
// count plus the current capacity fraction).
func (c *collector) syncBridge(renegotiations uint64, frac float64) {
	c.renegotiations.Add(renegotiations - c.prevReneg)
	c.prevReneg = renegotiations
	c.capacityFrac.Set(frac)
}
