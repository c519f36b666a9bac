package phy

import (
	"errors"

	"mosaic/internal/eventlog"
)

// Mapper assigns logical lanes to physical channels and manages the spare
// pool. This is the reliability half of the wide-and-slow story: with
// hundreds of channels, a handful of spares turns individual channel death
// from a link-down event (as with a laser) into a transparent remap.
//
// Remaps take effect at superframe boundaries, mirroring how the hardware
// swaps lanes between alignment periods.
type Mapper struct {
	lanes  []int  // lane -> physical channel
	spares []int  // unused physical channels, in preference order
	failed []bool // by physical channel: taken out of service
}

// NewMapper creates a mapper with `lanes` active lanes and `spares`
// additional spare channels; physical channels are numbered
// 0..lanes+spares-1 with the spares at the top.
func NewMapper(lanes, spares int) (*Mapper, error) {
	if lanes <= 0 || spares < 0 {
		return nil, errors.New("phy: mapper needs lanes > 0 and spares >= 0")
	}
	m := &Mapper{
		lanes:  make([]int, lanes),
		spares: make([]int, 0, spares),
		failed: make([]bool, lanes+spares),
	}
	for i := range m.lanes {
		m.lanes[i] = i
	}
	for i := 0; i < spares; i++ {
		m.spares = append(m.spares, lanes+i)
	}
	return m, nil
}

// NumLanes returns the number of active logical lanes.
func (m *Mapper) NumLanes() int { return len(m.lanes) }

// NumChannels returns the total number of physical channels managed.
func (m *Mapper) NumChannels() int { return len(m.failed) }

// SparesLeft returns the number of unused spare channels.
func (m *Mapper) SparesLeft() int { return len(m.spares) }

// Physical returns the physical channel for a logical lane.
func (m *Mapper) Physical(lane int) int { return m.lanes[lane] }

// LaneOf returns the logical lane currently mapped to a physical channel,
// or -1 if it is a spare or failed.
func (m *Mapper) LaneOf(physical int) int {
	for lane, p := range m.lanes {
		if p == physical {
			return lane
		}
	}
	return -1
}

// RemapEvent describes the outcome of a failure.
type RemapEvent struct {
	Physical int  // the channel that failed
	Lane     int  // the lane it carried (-1 if it was a spare)
	Spare    int  // the spare that took over (-1 if none available)
	Degraded bool // true when the link lost a lane instead of remapping
}

// The forms a RemapEvent is logged and rendered in.
var (
	recSpareFailed = eventlog.NewKind("spare channel %d failed (no traffic impact)", eventlog.Int)
	recNoSpares    = eventlog.NewKind("channel %d (lane %d) failed, no spares: degraded to fewer lanes", eventlog.Int, eventlog.Int)
	recRemapped    = eventlog.NewKind("channel %d (lane %d) failed, remapped to spare %d", eventlog.Int, eventlog.Int, eventlog.Int)
)

// Record appends the event as the nested record en takes.
func (e RemapEvent) Record(en eventlog.Entry) {
	switch {
	case e.Lane < 0:
		en.Rec(recSpareFailed).Int(e.Physical)
	case e.Degraded:
		en.Rec(recNoSpares).Int(e.Physical).Int(e.Lane)
	default:
		en.Rec(recRemapped).Int(e.Physical).Int(e.Lane).Int(e.Spare)
	}
}

// String renders the event as its record.
func (e RemapEvent) String() string { return eventlog.Line(e.Record) }

// Fail marks a physical channel dead and repairs the lane map: the lane is
// remapped onto the first available spare; with no spares left the lane is
// removed and the link degrades to fewer lanes (graceful rate degradation
// rather than link-down). A channel already failed, or outside
// [0, NumChannels), changes nothing.
func (m *Mapper) Fail(physical int) RemapEvent {
	if physical < 0 || physical >= len(m.failed) || m.failed[physical] {
		return RemapEvent{Physical: physical, Lane: -1, Spare: -1}
	}
	m.failed[physical] = true

	// A failed spare just shrinks the pool.
	for i, s := range m.spares {
		if s == physical {
			m.spares = append(m.spares[:i], m.spares[i+1:]...)
			return RemapEvent{Physical: physical, Lane: -1, Spare: -1}
		}
	}
	lane := m.LaneOf(physical)
	if lane < 0 {
		return RemapEvent{Physical: physical, Lane: -1, Spare: -1}
	}
	if len(m.spares) > 0 {
		spare := m.spares[0]
		m.spares = m.spares[1:]
		m.lanes[lane] = spare
		return RemapEvent{Physical: physical, Lane: lane, Spare: spare}
	}
	// Degrade: drop the lane entirely.
	m.lanes = append(m.lanes[:lane], m.lanes[lane+1:]...)
	return RemapEvent{Physical: physical, Lane: lane, Spare: -1, Degraded: true}
}

// ActivePhysicals returns the physical channel of every active lane, in
// lane order.
func (m *Mapper) ActivePhysicals() []int {
	out := make([]int, len(m.lanes))
	copy(out, m.lanes)
	return out
}
