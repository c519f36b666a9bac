package phy

import "mosaic/internal/eventlog"

// Predictive maintenance: LEDs age gracefully (their BER drifts up over
// months) rather than dying abruptly like lasers. Because the monitor sees
// per-channel corrected-error rates for free, a link can spare out a
// *degrading* channel before it ever drops a frame. This file implements
// that policy.

// MaintenancePolicy decides when to proactively replace channels.
type MaintenancePolicy struct {
	// SpareAboveBER: channels whose estimated pre-FEC BER exceeds this are
	// proactively remapped while spares remain.
	SpareAboveBER float64
	// KeepSpares holds back this many spares for hard failures; proactive
	// remaps stop when only KeepSpares are left.
	KeepSpares int
}

// DefaultMaintenancePolicy spares out channels beyond 1e-6 (three decades
// before the FEC limit) while keeping one spare in reserve.
func DefaultMaintenancePolicy() MaintenancePolicy {
	return MaintenancePolicy{SpareAboveBER: 1e-6, KeepSpares: 1}
}

// MaintenanceAction records one proactive replacement.
type MaintenanceAction struct {
	Physical     int
	EstimatedBER float64
	Event        RemapEvent
}

var recProactive = eventlog.NewKind("proactive: channel %d at estBER %.2e: %v", eventlog.Int, eventlog.Float, eventlog.Rec)

// Record appends the action as the nested record en takes.
func (a MaintenanceAction) Record(en eventlog.Entry) {
	a.Event.Record(en.Rec(recProactive).Int(a.Physical).Float(a.EstimatedBER))
}

// String renders the action as its record.
func (a MaintenanceAction) String() string { return eventlog.Line(a.Record) }

// Maintain applies the policy once: it examines the monitor's estimates
// and spares out the worst offenders, worst first, while the spare budget
// allows. It returns the actions taken. Call it periodically (e.g. after
// every N superframes); it is cheap and idempotent.
func (l *Link) Maintain(p MaintenancePolicy) []MaintenanceAction {
	if p.SpareAboveBER <= 0 {
		return nil
	}
	var actions []MaintenanceAction
	for _, h := range l.monitor.WorstChannels(l.mapper.NumChannels()) {
		if l.mapper.SparesLeft() <= p.KeepSpares {
			break
		}
		if h.State == Failed {
			continue // already handled by hard-failure paths
		}
		if h.EstimatedBER() <= p.SpareAboveBER {
			break // sorted worst-first: nothing further qualifies
		}
		if l.mapper.LaneOf(h.Physical) < 0 {
			continue // a spare is degrading; nothing to remap
		}
		l.monitor.MarkFailed(h.Physical)
		ev := l.mapper.Fail(h.Physical)
		actions = append(actions, MaintenanceAction{
			Physical:     h.Physical,
			EstimatedBER: h.EstimatedBER(),
			Event:        ev,
		})
	}
	return actions
}
