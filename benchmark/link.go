package main

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"hash"
	"math/rand"
	"time"

	"mosaic/internal/mac"
	"mosaic/internal/phy"
)

const (
	linkFrames     = 64   // frames per exchange on link_clean
	linkFrameLen   = 1500 // bytes per frame and per ARQ client packet
	linkFrameSets  = 8    // distinct inputs link_clean cycles through
	linkCleanRound = 100  // exchanges per round at scale 1
	linkWarmup     = 300  // untimed exchanges / ticks inside set-up at scale 1
	replayInputs   = 48   // exchanges the stage replay covers

	arqBER        = 2e-4
	arqRound      = 50 // ticks per round at scale 1
	arqWindow     = 256
	arqDrainLimit = 64
)

// arqPerVC is the client load per tick: 40 packets over three QoS
// classes, heaviest on the highest class.
var arqPerVC = [3]int{20, 12, 8}

// phyTotals sums ExchangeStats over a run.
type phyTotals struct {
	exchanges, framesIn, delivered, lost, corrupted int64
	unitsTotal, unitsLost, corrections              int64
	wireBytes, payloadBytes                         int64
}

func (t *phyTotals) add(st phy.ExchangeStats) {
	t.exchanges++
	t.framesIn += int64(st.FramesIn)
	t.delivered += int64(st.FramesDelivered)
	t.lost += int64(st.FramesLost)
	t.corrupted += int64(st.FramesCorrupted)
	t.unitsTotal += int64(st.UnitsTotal)
	t.unitsLost += int64(st.UnitsLost)
	t.corrections += int64(st.Corrections)
	t.wireBytes += int64(st.WireBytes)
	t.payloadBytes += int64(st.PayloadBytes)
}

// plus returns the field-wise sum of two totals.
func (t phyTotals) plus(o phyTotals) phyTotals {
	return phyTotals{
		t.exchanges + o.exchanges, t.framesIn + o.framesIn, t.delivered + o.delivered,
		t.lost + o.lost, t.corrupted + o.corrupted,
		t.unitsTotal + o.unitsTotal, t.unitsLost + o.unitsLost, t.corrections + o.corrections,
		t.wireBytes + o.wireBytes, t.payloadBytes + o.payloadBytes,
	}
}

func (t phyTotals) report(res *result) {
	res.set("phy.wire_efficiency", safeDiv(float64(t.payloadBytes), float64(t.wireBytes)))
	res.set("phy.corrections_per_exchange", safeDiv(float64(t.corrections), float64(t.exchanges)))
	res.set("phy.units_lost_ratio", safeDiv(float64(t.unitsLost), float64(t.unitsTotal)))
}

// reportExchangeSpans fills the PHY timing metrics that spans around the
// exchange calls and phy.New give.
func reportExchangeSpans(res *result, ix *spanIndex) {
	ex := ix.byName["phy.exchange"]
	res.setTiming("phy.exchange_us_p50", median(ex)/1e3, len(ex))
	res.setTail("phy.exchange_us_tail", ex, 1e3)
	res.setTiming("phy.new_ms", median(ix.byName["phy.new"])/1e6, len(ix.byName["phy.new"]))
}

func newLink(cfg phy.Config, tr *tracer) (*phy.Link, error) {
	id := tr.begin("phy.new")
	l, err := phy.New(cfg)
	tr.end(id)
	return l, err
}

// ---- link_clean ----

type linkClean struct {
	cfg    phy.Config
	link   *phy.Link
	buf    phy.ExchangeBuf
	sets   [][][]byte
	ops    int // exchanges per round
	next   int // index of the next exchange
	totals phyTotals
	sum    hash.Hash // delivered bytes of round 0
	bad    int64     // frames of round 0 that came back different
}

func setupLinkClean(e env, tr *tracer) (instance, error) {
	cfg := phy.DefaultConfig()
	cfg.Seed = e.seed
	cfg.Workers = e.procs
	link, err := newLink(cfg, tr)
	if err != nil {
		return nil, err
	}
	w := &linkClean{cfg: cfg, link: link, ops: e.scaled(linkCleanRound, 8), sum: sha256.New()}
	rng := rand.New(rand.NewSource(e.seed))
	for s := 0; s < linkFrameSets; s++ {
		set := make([][]byte, linkFrames)
		for i := range set {
			set[i] = make([]byte, linkFrameLen)
			rng.Read(set[i])
		}
		w.sets = append(w.sets, set)
	}
	for i := 0; i < e.scaled(linkWarmup, 4); i++ {
		if _, _, err := link.ExchangeInto(&w.buf, w.sets[i%linkFrameSets]); err != nil {
			return nil, err
		}
	}
	return w, nil
}

func (w *linkClean) round(r int, m *meter) error {
	const mbit = linkFrames * linkFrameLen * 8 / 1e6
	for i := 0; i < w.ops; i++ {
		frames := w.sets[w.next%linkFrameSets]
		w.next++
		tr := m.begin()
		id := tr.begin("phy.exchange")
		out, st, err := w.link.ExchangeInto(&w.buf, frames)
		tr.end(id)
		m.end(mbit)
		if err != nil {
			return err
		}
		w.totals.add(st)
		if r == 0 {
			for j, f := range out {
				w.sum.Write(f)
				if !bytes.Equal(f, frames[j]) {
					w.bad++
				}
			}
		}
	}
	return nil
}

func (w *linkClean) check(r int) ([]byte, error) {
	t := w.totals
	var err error
	if t.delivered != t.framesIn || w.bad > 0 {
		err = fmt.Errorf("clean link delivered %d of %d frames, %d altered", t.delivered, t.framesIn, w.bad)
	}
	if r != 0 {
		return nil, err
	}
	return []byte(fmt.Sprintf("%x %+v", w.sum.Sum(nil), t)), err
}

func (w *linkClean) finish(res *result, ix *spanIndex) error {
	res.Attempted = w.totals.framesIn
	res.Failed = w.totals.framesIn - w.totals.delivered + w.bad
	if ix == nil {
		return nil
	}
	reportExchangeSpans(res, ix)
	w.totals.report(res)
	inputs := make([][][]byte, replayInputs)
	for i := range inputs {
		inputs[i] = w.sets[i%linkFrameSets]
	}
	rep, err := replayStream(w.cfg, 0, inputs)
	if err != nil {
		return err
	}
	rep.report(res)
	return nil
}

func (w *linkClean) close() {}

// ---- link_noisy_arq ----

type linkARQ struct {
	fwdCfg   phy.Config
	fwd, rev *phy.Link
	pair     *mac.Pair
	chunk    int
	packets  [][]byte
	ticks    int // ticks per round

	deliveredPkts  int64
	deliveredBytes int64
	fwdTotals      phyTotals
	revTotals      phyTotals
	totalTicks     int
	drainTicks     int
	chunksF        [][]byte
	chunksR        [][]byte
	recorded       [][][]byte // first fwd exchange inputs of traced ticks, copied
}

func setupLinkARQ(e env, tr *tracer) (instance, error) {
	w := &linkARQ{ticks: e.scaled(arqRound, 8), chunk: mac.DefaultPHYFrameLen}
	mk := func(off int64) (phy.Config, *phy.Link, error) {
		cfg := phy.DefaultConfig()
		cfg.Seed = e.seed + off
		cfg.Workers = e.procs
		l, err := newLink(cfg, tr)
		if err != nil {
			return cfg, nil, err
		}
		for p := 0; p < cfg.Lanes+cfg.Spares; p++ {
			l.SetChannelBER(p, arqBER)
		}
		return cfg, l, nil
	}
	var err error
	if w.fwdCfg, w.fwd, err = mk(100); err != nil {
		return nil, err
	}
	if _, w.rev, err = mk(200); err != nil {
		return nil, err
	}
	perTick := arqPerVC[0] + arqPerVC[1] + arqPerVC[2]
	pc := mac.PairConfig{Endpoint: mac.Config{
		Window: arqWindow, MaxPayload: linkFrameLen,
		ARQ: mac.ARQSelectiveRepeat, VCs: 3, VCClass: []uint8{0, 1, 2},
		// Fresh load plus half again for retransmissions and acks: the
		// queue stays shallow at BER 2e-4 without idle-filling most of
		// the superframe.
		PayloadBudget: (perTick + perTick/2) * (linkFrameLen + mac.OverheadV2),
	}}
	w.pair, err = mac.NewPair(w.fwd, w.rev, pc, nil, func(p []byte) {
		w.deliveredPkts++
		w.deliveredBytes += int64(len(p))
	})
	if err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(e.seed))
	w.packets = make([][]byte, perTick)
	for i := range w.packets {
		w.packets[i] = make([]byte, linkFrameLen)
		rng.Read(w.packets[i])
	}
	for i := 0; i < e.scaled(linkWarmup, 4); i++ {
		if err := w.tick(nil); err != nil {
			return nil, err
		}
	}
	return w, nil
}

// send queues one tick's client packets at A.
func (w *linkARQ) send() error {
	i := 0
	for vc, n := range arqPerVC {
		for k := 0; k < n; k++ {
			if err := w.pair.A.SendVC(vc, w.packets[i]); err != nil {
				return err
			}
			i++
		}
	}
	return nil
}

// tick offers one tick of client load and moves one superframe each way.
// Untraced it is the system's own Pair.Tick. Traced it is the same
// sequence spelled out over the pair's public endpoints, so that each
// call into the MAC and the PHY gets its own span; sim_digest holds the
// two to the same outcome.
func (w *linkARQ) tick(tr *tracer) error {
	id := tr.begin("mac.send")
	err := w.send()
	tr.end(id)
	if err != nil {
		return err
	}
	w.totalTicks++
	if tr == nil {
		if err := w.pair.Tick(); err != nil {
			return err
		}
		w.fwdTotals.add(w.pair.FwdStats)
		w.revTotals.add(w.pair.RevStats)
		return nil
	}
	var ferr error
	w.chunksF, ferr = w.half(tr, w.pair.A, w.pair.B, w.fwd, w.chunksF, &w.fwdTotals, true)
	if ferr != nil {
		return ferr
	}
	w.chunksR, ferr = w.half(tr, w.pair.B, w.pair.A, w.rev, w.chunksR, &w.revTotals, false)
	return ferr
}

// half moves one superframe from tx to rx over link.
func (w *linkARQ) half(tr *tracer, tx, rx *mac.Endpoint, link *phy.Link, chunks [][]byte, totals *phyTotals, record bool) ([][]byte, error) {
	id := tr.begin("mac.build")
	payload := tx.BuildSuperframe()
	tr.end(id)
	chunks = chunks[:0]
	for off := 0; off < len(payload); off += w.chunk {
		chunks = append(chunks, payload[off:min(off+w.chunk, len(payload))])
	}
	if record && len(w.recorded) < replayInputs {
		cp := make([][]byte, len(chunks))
		for i, c := range chunks {
			cp[i] = append([]byte(nil), c...)
		}
		w.recorded = append(w.recorded, cp)
	}
	id = tr.begin("phy.exchange")
	delivered, st, err := link.Exchange(chunks)
	tr.end(id)
	if err != nil {
		return chunks, err
	}
	totals.add(st)
	id = tr.begin("mac.accept")
	rx.Accept(delivered)
	tr.end(id)
	return chunks, nil
}

func (w *linkARQ) round(_ int, m *meter) error {
	for i := 0; i < w.ticks; i++ {
		before := w.deliveredBytes
		err := w.tick(m.begin())
		m.end(float64(w.deliveredBytes-before) * 8 / 1e6)
		if err != nil {
			return err
		}
	}
	return nil
}

func (w *linkARQ) check(r int) ([]byte, error) {
	if r != 0 {
		return nil, nil
	}
	return []byte(fmt.Sprintf("A=%+v B=%+v fwd=%+v rev=%+v",
		w.pair.A.Stats(), w.pair.B.Stats(), w.fwdTotals, w.revTotals)), nil
}

func (w *linkARQ) finish(res *result, ix *spanIndex) error {
	// Bounded drain: no new load, tick until nothing is outstanding.
	for w.drainTicks < arqDrainLimit {
		a := w.pair.A.Stats()
		if a.InFlight == 0 && a.QueueDepth == 0 {
			break
		}
		if err := w.pair.Tick(); err != nil {
			return err
		}
		w.drainTicks++
	}
	a, b := w.pair.A.Stats(), w.pair.B.Stats()
	res.Attempted = int64(a.PacketsQueued)
	res.Failed = int64(a.PacketsQueued) - w.deliveredPkts
	if a.InFlight != 0 || a.QueueDepth != 0 || res.Failed != 0 {
		res.problem("ARQ did not drain in %d ticks: in flight %d, queued %d, undelivered %d",
			arqDrainLimit, a.InFlight, a.QueueDepth, res.Failed)
	}
	if ix == nil {
		return nil
	}
	reportExchangeSpans(res, ix)
	w.fwdTotals.plus(w.revTotals).report(res)

	tickNS := ix.total("op")
	sends, builds, accepts := ix.byName["mac.send"], ix.byName["mac.build"], ix.byName["mac.accept"]
	res.setTiming("mac.send_ns_per_pkt", safeDiv(sum(sends), float64(len(sends)*len(w.packets))), len(sends))
	res.setTiming("mac.build_us_per_sf", safeDiv(sum(builds), float64(len(builds)))/1e3, len(builds))
	res.setTiming("mac.accept_us_per_sf", safeDiv(sum(accepts), float64(len(accepts)))/1e3, len(accepts))
	res.set("mac.self_frac_of_tick", safeDiv(ix.self["mac.send"]+ix.self["mac.build"]+ix.self["mac.accept"], tickNS))
	res.set("mac.frame_roundtrip_ns", macFrameRoundTrip(w.packets[0]))

	kticks := float64(w.totalTicks) / 1e3
	res.set("mac.retx_ratio", safeDiv(float64(a.Retransmits), float64(a.DataTx)))
	res.set("mac.goodput_ratio", safeDiv(float64(w.deliveredBytes), float64(w.fwdTotals.payloadBytes)))
	res.set("mac.timeouts_per_ktick", float64(a.Timeouts)/kticks)
	res.set("mac.credit_stalls_per_ktick", float64(a.CreditStalls)/kticks)
	res.set("mac.reordered_per_ktick", float64(b.Reordered)/kticks)
	res.set("mac.discarded_per_ktick", float64(b.Discarded)/kticks)
	res.set("mac.drain_ticks", float64(w.drainTicks))

	rep, err := replayStream(w.fwdCfg, arqBER, w.recorded)
	if err != nil {
		return err
	}
	rep.report(res)
	return nil
}

func (w *linkARQ) close() {}

// macFrameRoundTrip times AppendFrame plus Deframe of one client packet,
// the kernel BenchmarkMACFrameRoundTrip gates, and returns ns per frame.
func macFrameRoundTrip(payload []byte) float64 {
	const iters = 20000
	buf := make([]byte, 0, len(payload)+mac.Overhead)
	var d mac.Deframer
	got := 0
	emit := func(fr mac.Frame) {
		if len(fr.Payload) == len(payload) {
			got++
		}
	}
	t := time.Now()
	for i := 0; i < iters; i++ {
		buf = mac.AppendFrame(buf[:0], mac.FlagData, uint16(i), uint16(i), payload)
		d.Deframe(buf, emit)
	}
	ns := float64(time.Since(t)) / iters
	if got != iters {
		return 0
	}
	return ns
}
