// Package linkflags declares, once, the flags the link CLIs share —
// names, defaults, parsing and what they construct. linksim and linksoak
// both take the Link and MAC blocks, so the two CLIs build a link and a
// MAC endpoint from the same command line the same way.
package linkflags

import (
	"flag"

	"mosaic/internal/mac"
	"mosaic/internal/phy"
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
	fs.IntVar(&l.Spares, "spares", 4, "spare channels")
	fs.StringVar(&l.fecName, "fec", "rslite", "per-channel FEC: none|hamming72|rslite|kp4")
	fs.Int64Var(&l.Seed, "seed", 1, "simulation seed (soak rounds: round r replays schedule seed+r)")
	return l
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
	fs.BoolVar(&m.Enabled, "mac", false, "run MAC-framed traffic (CRC framing + LLR; soaks add the capacity bridge) over a full-duplex pair instead of a bare PHY")
	fs.StringVar(&m.arqName, "arq", "gbn", "LLR retransmission discipline with -mac: gbn|sr")
	fs.IntVar(&m.VCs, "vc", 1, "virtual channels with -mac (classes assigned round-robin)")
	return m
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
