package phy

import (
	"fmt"
	"sort"
	"sync"
)

// Link bring-up: before carrying traffic, a Mosaic endpoint probes every
// physical channel — including the spares — with test patterns, takes dead
// and hopeless channels out of service, and only then declares the link
// up. This is the power-on self-test that makes day-one manufacturing
// defects (and transport damage) invisible to the host.

// LinkState is the bring-up state of the link.
type LinkState int

// Bring-up states.
const (
	StateDown LinkState = iota
	StateProbing
	StateUp
	StateDegraded // up, but with fewer lanes than configured
)

// String names the state.
func (s LinkState) String() string {
	switch s {
	case StateDown:
		return "down"
	case StateProbing:
		return "probing"
	case StateUp:
		return "up"
	case StateDegraded:
		return "degraded"
	default:
		return fmt.Sprintf("state(%d)", int(s))
	}
}

// probeScratch holds ProbeChannel's buffers, borrowed from probePool for
// one probe: a link probes only during bring-up, so it keeps none.
type probeScratch struct {
	payload []byte
	wire    []byte
	rx      []byte
	body    []byte
}

var probePool = sync.Pool{New: func() any { return new(probeScratch) }}

// ProbeChannel sends `count` probe frames over one physical channel and
// returns how many came back intact and how many errors the FEC corrected.
// It exercises exactly the per-channel path traffic uses (framer + FEC +
// channel) without involving the gearbox.
func (l *Link) ProbeChannel(physical, count int) (ok, corrections int) {
	if physical < 0 || physical >= len(l.channels) || count <= 0 {
		return 0, 0
	}
	ch := &l.channels[physical]
	ps := probePool.Get().(*probeScratch)
	defer probePool.Put(ps)
	if cap(ps.payload) < l.framer.PayloadLen() {
		ps.payload = make([]byte, l.framer.PayloadLen())
	}
	payload := ps.payload[:l.framer.PayloadLen()]
	for i := range payload {
		payload[i] = byte(i*7 + physical) // deterministic test pattern
	}
	wire := ps.wire[:0]
	if need := count * l.framer.WireLen(); cap(wire) < need {
		wire = make([]byte, 0, need)
	}
	for seq := 0; seq < count; seq++ {
		wire = l.framer.AppendFrame(wire, 0x7fff, uint32(seq), payload, &ps.body)
	}
	ps.wire = wire
	ps.rx = ch.TransmitTo(ps.rx[:0], wire)
	st := l.framer.ScanStream(ps.rx, &ps.body, func(lane int, _ uint32, got []byte, _ int) {
		if lane == 0x7fff && byteEqual(got, payload) {
			ok++
		}
	})
	return ok, st.Corrections
}

func byteEqual(a, b []byte) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// BringupReport summarises a bring-up sequence.
type BringupReport struct {
	State        LinkState
	Probed       int
	DeadChannels []int
	Remaps       []RemapEvent
	Lanes        int // active lanes after bring-up
	SparesLeft   int
}

// String renders the report.
func (r BringupReport) String() string {
	return fmt.Sprintf("bringup: %v, %d probed, %d dead %v, %d lanes, %d spares left",
		r.State, r.Probed, len(r.DeadChannels), r.DeadChannels, r.Lanes, r.SparesLeft)
}

// Bringup probes every physical channel with `probeFrames` test frames,
// fails channels that return fewer than half of them, and returns the
// resulting link state. It is idempotent: already-failed channels are not
// probed again.
func (l *Link) Bringup(probeFrames int) BringupReport {
	if probeFrames <= 0 {
		probeFrames = 8
	}
	rep := BringupReport{State: StateProbing}
	var dead []int
	for p := range l.channels {
		if l.monitor.Health(p).State == Failed {
			continue // already out of service
		}
		rep.Probed++
		ok, _ := l.ProbeChannel(p, probeFrames)
		if ok*2 < probeFrames {
			dead = append(dead, p)
		}
	}
	sort.Ints(dead)
	for _, p := range dead {
		l.monitor.MarkFailed(p)
		rep.Remaps = append(rep.Remaps, l.mapper.Fail(p))
	}
	rep.DeadChannels = dead
	rep.Lanes = l.mapper.NumLanes()
	rep.SparesLeft = l.mapper.SparesLeft()
	switch {
	case rep.Lanes == 0:
		rep.State = StateDown
	case rep.Lanes < l.cfg.Lanes:
		rep.State = StateDegraded
	default:
		rep.State = StateUp
	}
	return rep
}
