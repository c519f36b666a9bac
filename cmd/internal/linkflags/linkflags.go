// Package linkflags declares, once, the flags the link CLIs share —
// names, defaults, parsing and what they construct. linksim takes the
// Link and MAC blocks; linksoak and linkmetricsd take Soak, which embeds
// both and adds the soak shape, so the two soak CLIs run one round the
// same way in bare-PHY and MAC mode.
package linkflags

import (
	"errors"
	"flag"
	"fmt"
	"math/rand"

	"mosaic/internal/faultinject"
	"mosaic/internal/mac"
	"mosaic/internal/phy"
	"mosaic/internal/telemetry"
)

// Link is the -spares/-fec/-seed block.
type Link struct {
	Spares int
	Seed   int64
	FEC    phy.FEC // set by Resolve

	fecName string
}

// AddLink registers the Link flags on fs.
func AddLink(fs *flag.FlagSet) *Link {
	l := &Link{}
	l.add(fs)
	return l
}

func (l *Link) add(fs *flag.FlagSet) {
	fs.IntVar(&l.Spares, "spares", 4, "spare channels")
	fs.StringVar(&l.fecName, "fec", "rslite", "per-channel FEC: none|hamming72|rslite|kp4")
	fs.Int64Var(&l.Seed, "seed", 1, "simulation seed (soak rounds: round r replays schedule seed+r)")
}

// Resolve looks -fec up; call it after fs.Parse.
func (l *Link) Resolve() (err error) {
	l.FEC, err = phy.FECByName(l.fecName)
	return err
}

// MAC is the -mac/-arq/-vc block.
type MAC struct {
	Enabled bool
	VCs     int
	ARQ     mac.ARQKind // set by Resolve

	arqName string
}

// AddMAC registers the MAC flags on fs.
func AddMAC(fs *flag.FlagSet) *MAC {
	m := &MAC{}
	m.add(fs)
	return m
}

func (m *MAC) add(fs *flag.FlagSet) {
	fs.BoolVar(&m.Enabled, "mac", false, "run MAC-framed traffic (CRC framing + LLR; soaks add the capacity bridge) over a full-duplex pair instead of a bare PHY")
	fs.StringVar(&m.arqName, "arq", "gbn", "LLR retransmission discipline with -mac: gbn|sr")
	fs.IntVar(&m.VCs, "vc", 1, "virtual channels with -mac (classes assigned round-robin)")
}

// Resolve looks -arq up; call it after fs.Parse.
func (m *MAC) Resolve() (err error) {
	m.ARQ, err = mac.ARQByName(m.arqName)
	return err
}

// Endpoint sets the discipline, the VC count and the round-robin class
// map on ep, and returns the even per-VC split of packets per superframe
// (nil for a single VC).
func (m *MAC) Endpoint(ep *mac.Config, packets int) (vcPackets []int) {
	ep.ARQ, ep.VCs = m.ARQ, m.VCs
	ep.VCClass, vcPackets = mac.RoundRobinVCs(m.VCs, packets)
	return vcPackets
}

// Soak is the full link + soak + MAC block of linksoak and linkmetricsd.
type Soak struct {
	Link
	MAC

	Lanes, UnitLen, Workers       int
	Superframes, Frames, FrameLen int
	Hazard                        float64
	MaintainEvery, KeepSpares     int
	SpareAbove                    float64
}

// AddSoak registers the Soak flags on fs; -superframes and -hazard take
// the caller's defaults (a one-shot soak and a wearing daemon differ).
func AddSoak(fs *flag.FlagSet, superframes int, hazard float64) *Soak {
	s := &Soak{}
	s.Link.add(fs)
	s.MAC.add(fs)
	fs.IntVar(&s.Lanes, "lanes", 100, "active data lanes")
	fs.IntVar(&s.UnitLen, "unit", 243, "stripe unit length in bytes (multiple of 9)")
	fs.IntVar(&s.Workers, "workers", 0, "PHY lane workers (0 = all cores; results identical at any value)")
	fs.IntVar(&s.Superframes, "superframes", superframes, "superframes (Exchange rounds) per soak")
	fs.IntVar(&s.Frames, "frames", 24, "frames (with -mac: client packets) per superframe")
	fs.IntVar(&s.FrameLen, "framesize", 1500, "bytes per frame")
	fs.Float64Var(&s.Hazard, "hazard", hazard, "per-superframe channel death probability of the random-kill schedule")
	fs.IntVar(&s.MaintainEvery, "maintain-every", 10, "superframes between proactive maintenance passes (0 = never)")
	fs.IntVar(&s.KeepSpares, "keep-spares", 1, "spares held back for hard failures")
	fs.Float64Var(&s.SpareAbove, "spare-above", 1e-6, "proactive remap threshold (estimated BER)")
	return s
}

// Resolve looks -fec and -arq up and refuses a -hazard that is not a
// probability; call it after fs.Parse.
func (s *Soak) Resolve() error {
	if !(s.Hazard >= 0 && s.Hazard <= 1) {
		return fmt.Errorf("-hazard %g must be in [0, 1]", s.Hazard)
	}
	if err := s.Link.Resolve(); err != nil {
		return err
	}
	return s.MAC.Resolve()
}

// Channels is the physical channel count, lanes plus spares.
func (s *Soak) Channels() int { return s.Lanes + s.Spares }

// Links is the link under test and, with -mac, its reverse direction
// (nil for a bare-PHY soak).
type Links struct{ Fwd, Rev *phy.Link }

// NewLinks builds a fresh module. The reverse link is seeded Seed+1 so
// the two directions draw independent error streams.
func (s *Soak) NewLinks() (l Links, err error) {
	cfg := phy.Config{
		Lanes:             s.Lanes,
		Spares:            s.Spares,
		FEC:               s.FEC,
		UnitLen:           s.UnitLen,
		PerChannelBitRate: 2e9,
		Seed:              s.Seed,
		Workers:           s.Workers,
	}
	if l.Fwd, err = phy.New(cfg); err != nil || !s.MAC.Enabled {
		return l, err
	}
	cfg.Seed++
	l.Rev, err = phy.New(cfg)
	return l, err
}

// RandomKills is the -hazard schedule for one round, drawn from seed;
// empty when -hazard is 0.
func (s *Soak) RandomKills(seed int64) faultinject.Schedule {
	if s.Hazard <= 0 {
		return faultinject.Schedule{}
	}
	sched := faultinject.RandomKills(rand.New(rand.NewSource(seed)), s.Channels(), s.Hazard, s.Superframes)
	sched.Seed = seed
	return sched
}

// Report is what one soak round leaves behind in either mode.
type Report struct {
	Result  any // *faultinject.Result or *mac.Result, for JSON output
	Log     []string
	Summary string
}

// Round replays sched for one soak round: against l.Fwd alone through
// faultinject.Run, or with -mac against the forward link of a full MAC
// session (the selected ARQ discipline over the configured virtual
// channels, capacity bridge attached) whose acks return over l.Rev. A
// nil Report means the round could not start; a Report with an error is
// the partial round up to the superframe that failed.
func (s *Soak) Round(l Links, sched faultinject.Schedule, reg *telemetry.Registry) (*Report, error) {
	if !s.MAC.Enabled {
		res, err := faultinject.Run(faultinject.Config{
			Link:          l.Fwd,
			Schedule:      sched,
			Superframes:   s.Superframes,
			FramesPerSF:   s.Frames,
			FrameLen:      s.FrameLen,
			Seed:          s.Seed,
			Policy:        phy.MaintenancePolicy{SpareAboveBER: s.SpareAbove, KeepSpares: s.KeepSpares},
			MaintainEvery: s.MaintainEvery,
			Metrics:       reg,
		})
		if res == nil {
			return nil, err
		}
		return &Report{res, res.Log, res.Summary()}, err
	}
	var pc mac.PairConfig
	vcPackets := s.MAC.Endpoint(&pc.Endpoint, s.Frames)
	sess, err := mac.NewSession(mac.SessionConfig{
		Fwd:          l.Fwd,
		Rev:          l.Rev,
		Pair:         pc,
		Schedule:     sched,
		Superframes:  s.Superframes,
		Interval:     1e-5,
		PacketsPerSF: s.Frames,
		VCPackets:    vcPackets,
		PacketLen:    s.FrameLen,
		Seed:         s.Seed,
		Bridge:       mac.NewBridge(l.Fwd),
		Metrics:      reg,
	})
	if err != nil {
		return nil, err
	}
	res := sess.Run()
	if res.Err != "" {
		err = errors.New(res.Err)
	}
	return &Report{res, res.Log, res.Summary()}, err
}
