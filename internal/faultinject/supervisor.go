package faultinject

import (
	"math"

	"mosaic/internal/eventlog"
	"mosaic/internal/phy"
	"mosaic/internal/telemetry"
)

// Supervisor owns what happens around one superframe of a link under a
// fault schedule — the one reliability behaviour every harness shares: a
// channel dies, the monitor marks it failed, a spare is remapped in, and
// only when spares run out does the link shed a lane. The soak runner
// here, mac.Session, fleetd's managed links and the experiments all cross
// a superframe boundary through it, in this order:
//
//	Begin(sf)  inject the events due (OnInject sees each one first), step
//	           aging ramps, expire bursts
//	traffic    the caller's: a bare Exchange or a mac.Pair.Tick; monitor
//	           transitions fire in here and are logged as they happen
//	Spare()    remap every newly monitor-failed channel, once
//	...        caller dialect (maintenance actions, retransmit lines)
//	End(st)    degraded / spares-exhausted milestones, once each, then the
//	           telemetry feed
//
// The supervisor writes four canonical lines into the caller's log, all
// labelled with the sf passed to Begin: "sf=N transition ch=C from->to",
// "sf=N remap <event>", "sf=N degraded lanes=L/L0" and "sf=N
// spares-exhausted". Everything else (inject, first-drop, maintain, retx,
// renegotiate, lifecycle) is the caller's dialect. Step order is
// deterministic: the same schedule and call sequence always mutates the
// link, and fills the log, identically.
type Supervisor struct {
	link *phy.Link
	log  *eventlog.Log
	col  *telemetry.LinkCollector
	prev func(physical int, from, to phy.ChannelState)

	sf int // label of the boundary in progress

	// Schedule cursor and the in-flight state a schedule implies.
	events []Event
	next   int
	origin int // label sf of the loaded schedule's At=0
	ramps  []agingRamp
	bursts []burst

	lanesStart int
	degradedSF int
	exhaustSF  int

	// OnInject, when non-nil, is called for each event at the moment it
	// is applied (before the link is touched). Harnesses use it to log
	// and count injections in their own dialect.
	OnInject func(e Event)
}

// agingRamp tracks one in-flight KindAging event.
type agingRamp struct {
	channel  int
	startBER float64
	target   float64
	startSF  int
	duration int
}

// burst tracks one in-flight KindBurst event.
type burst struct {
	channel  int
	savedBER float64
	endSF    int
}

// Supervise takes over link's superframe boundaries: it chains onto the
// monitor's transition hook (whatever was installed keeps firing, first;
// Close puts it back) and writes the canonical lines into log. With a
// non-nil metrics registry it also attaches the per-link/per-channel
// telemetry.LinkCollector, fed from End. Telemetry is write-only: it
// cannot change the log. Load a schedule before the first
// Begin; an unloaded supervisor injects nothing.
func Supervise(link *phy.Link, log *eventlog.Log, metrics *telemetry.Registry) *Supervisor {
	s := &Supervisor{
		link:       link,
		log:        log,
		prev:       link.Monitor().TransitionHook(),
		lanesStart: link.Mapper().NumLanes(),
		degradedSF: -1,
		exhaustSF:  -1,
	}
	if metrics != nil {
		s.col = telemetry.NewLinkCollector(metrics, link)
	}
	link.Monitor().SetTransitionHook(func(physical int, from, to phy.ChannelState) {
		if s.prev != nil {
			s.prev(physical, from, to)
		}
		s.log.Addf("sf=%d transition ch=%d %v->%v", s.sf, physical, from, to)
	})
	return s
}

// Close hands the monitor back: the hook found at Supervise is restored.
func (s *Supervisor) Close() { s.link.Monitor().SetTransitionHook(s.prev) }

// Load arms a validated schedule (events sorted by At) whose At=0 is the
// boundary labelled origin, replacing the previous one: its cursor
// restarts and in-flight ramps and bursts of the old schedule are
// dropped where they stand. fleetd reloads one per horizon round.
func (s *Supervisor) Load(sched Schedule, origin int) {
	s.events, s.next, s.origin = sched.Events, 0, origin
	s.ramps, s.bursts = s.ramps[:0], s.bursts[:0]
}

// Begin opens the boundary before superframe sf: events with At <= sf
// (relative to the schedule's origin) are injected in order, then aging
// ramps advance one step and expired bursts restore their saved BER. Call
// it once per superframe with a monotonically increasing sf.
func (s *Supervisor) Begin(sf int) {
	s.sf = sf
	link := s.link
	at := sf - s.origin
	for s.next < len(s.events) && s.events[s.next].At <= at {
		e := s.events[s.next]
		s.next++
		if s.OnInject != nil {
			s.OnInject(e)
		}
		switch e.Kind {
		case KindKill:
			link.KillChannel(e.Channel)
		case KindCorrelated:
			for c := e.Channel; c < e.Channel+e.Span; c++ {
				link.KillChannel(c)
			}
		case KindAging:
			start := link.ChannelBER(e.Channel)
			if start < 1e-9 {
				start = 1e-9
			}
			s.ramps = append(s.ramps, agingRamp{
				channel: e.Channel, startBER: start, target: e.BER,
				startSF: at, duration: e.Duration,
			})
		case KindBurst:
			s.bursts = append(s.bursts, burst{
				channel: e.Channel, savedBER: link.ChannelBER(e.Channel),
				endSF: at + e.Duration,
			})
			link.SetChannelBER(e.Channel, e.BER)
		}
	}

	// Aging ramps: log-linear BER climb toward the target, then hold.
	live := s.ramps[:0]
	for _, r := range s.ramps {
		prog := float64(at-r.startSF+1) / float64(r.duration)
		if prog >= 1 {
			link.SetChannelBER(r.channel, r.target)
			continue // ramp complete; target holds
		}
		link.SetChannelBER(r.channel,
			r.startBER*math.Pow(r.target/r.startBER, prog))
		live = append(live, r)
	}
	s.ramps = live

	// Bursts: restore the saved BER once the episode ends.
	liveB := s.bursts[:0]
	for _, b := range s.bursts {
		if at >= b.endSF {
			link.SetChannelBER(b.channel, b.savedBER)
			continue
		}
		liveB = append(liveB, b)
	}
	s.bursts = liveB
}

// Spare is the reactive-sparing step: monitor-failed channels are
// remapped at the boundary, taking effect next superframe, each exactly
// once (phy.Link.SpareFailed — the mapper remembers, not the harness).
// Returns how many channels were remapped.
func (s *Supervisor) Spare() int {
	return s.link.SpareFailed(func(ev phy.RemapEvent) {
		s.log.Addf("sf=%d remap %v", s.sf, ev)
	})
}

// End closes the boundary: the first superframe the link ran below its
// width at Supervise and the first it had no spare left are logged once
// each, then st and the post-remap link state feed the collector, so a
// concurrent scrape always sees a whole-superframe view.
func (s *Supervisor) End(st phy.ExchangeStats) {
	m := s.link.Mapper()
	if s.degradedSF < 0 && m.NumLanes() < s.lanesStart {
		s.degradedSF = s.sf
		s.log.Addf("sf=%d degraded lanes=%d/%d", s.sf, m.NumLanes(), s.lanesStart)
	}
	if s.exhaustSF < 0 && m.SparesLeft() == 0 {
		s.exhaustSF = s.sf
		s.log.Addf("sf=%d spares-exhausted", s.sf)
	}
	if s.col != nil {
		s.col.ObserveExchange(st)
		s.col.Sync()
	}
}

// LanesStart is the link's width when supervision began — the reference
// the degraded milestone compares against.
func (s *Supervisor) LanesStart() int { return s.lanesStart }

// Milestones returns the first superframe the link lost a lane outright
// and the first the spare pool hit zero (-1 = never).
func (s *Supervisor) Milestones() (degradedSF, spareExhaustSF int) { return s.degradedSF, s.exhaustSF }
