package mac

import (
	"reflect"
	"testing"

	"mosaic/internal/phy"
)

// polledBridge is a flow-simulator owner's view of a bridge: it reads
// Fraction after every Sync and records each value that moved — the
// writes a FlowSim would act on.
type polledBridge struct {
	*Bridge
	fracs []float64
}

func (p *polledBridge) Sync() {
	before := p.Fraction()
	p.Bridge.Sync()
	if f := p.Fraction(); f != before {
		p.fracs = append(p.fracs, f)
	}
}

func bridgeLink(t *testing.T, lanes, spares int) *phy.Link {
	t.Helper()
	link, err := phy.New(phy.Config{
		Lanes:             lanes,
		Spares:            spares,
		FEC:               phy.NoFEC{},
		UnitLen:           63,
		PerChannelBitRate: 2e9,
		Seed:              1,
	})
	if err != nil {
		t.Fatal(err)
	}
	return link
}

// Failures absorbed by spares must not publish anything; once spares
// run out, each lane loss publishes exactly one shrinking fraction.
func TestBridgeSparesAbsorbThenDegrade(t *testing.T) {
	link := bridgeLink(t, 10, 2)
	b := &polledBridge{Bridge: NewBridge(link)}

	fail := func(ch int) {
		link.FailChannel(ch)
		b.Sync()
	}

	fail(0)
	fail(1)
	if len(b.fracs) != 0 {
		t.Fatalf("spare-absorbed failures published capacity: %+v", b.fracs)
	}
	if b.Fraction() != 1 || b.Renegotiations() != 0 {
		t.Fatalf("fraction=%v renegs=%d, want 1/0", b.Fraction(), b.Renegotiations())
	}

	fail(2) // spares exhausted: 9/10 lanes
	fail(3) // 8/10
	if len(b.fracs) != 2 {
		t.Fatalf("published %d times, want 2: %+v", len(b.fracs), b.fracs)
	}
	if b.fracs[0] != 0.9 || b.fracs[1] != 0.8 {
		t.Fatalf("wrong publications: %+v", b.fracs)
	}
	if b.Renegotiations() != 2 {
		t.Fatalf("renegotiations = %d, want 2", b.Renegotiations())
	}
}

// Failures between two Syncs (one superframe's worth) coalesce into one
// renegotiation at the settled fraction.
func TestBridgeCoalescesSimultaneousFailures(t *testing.T) {
	link := bridgeLink(t, 10, 0)
	b := &polledBridge{Bridge: NewBridge(link)}

	b.Sync()
	link.FailChannel(0)
	link.FailChannel(1)
	link.FailChannel(2)
	b.Sync()

	if len(b.fracs) != 1 || b.Renegotiations() != 1 {
		t.Fatalf("published %d times, want 1 coalesced: %+v", len(b.fracs), b.fracs)
	}
	if b.fracs[0] != 0.7 {
		t.Fatalf("coalesced fraction = %v, want 0.7", b.fracs[0])
	}
}

// The bridge never touches the monitor's single hook slot: a hook
// installed before NewBridge is the same hook, and still fires, after a
// Sync.
func TestBridgeLeavesExistingHook(t *testing.T) {
	link := bridgeLink(t, 4, 0)
	var hookCalls int
	link.Monitor().SetTransitionHook(func(int, phy.ChannelState, phy.ChannelState) { hookCalls++ })
	before := reflect.ValueOf(link.Monitor().TransitionHook()).Pointer()
	b := NewBridge(link)

	link.FailChannel(0)
	b.Sync()
	if hookCalls == 0 {
		t.Fatal("pre-existing transition hook did not fire")
	}
	if after := reflect.ValueOf(link.Monitor().TransitionHook()).Pointer(); after != before {
		t.Fatal("the bridge replaced the monitor's transition hook")
	}
	if b.Renegotiations() != 1 {
		t.Fatalf("renegotiations = %d, want 1", b.Renegotiations())
	}
}

// A Sync with nothing changed publishes nothing and allocates nothing —
// it runs on every superframe of every link.
func TestBridgeIdleSyncIsFree(t *testing.T) {
	link := bridgeLink(t, 10, 0)
	b := &polledBridge{Bridge: NewBridge(link)}
	link.FailChannel(0)
	b.Sync()

	if allocs := testing.AllocsPerRun(100, b.Sync); allocs != 0 {
		t.Errorf("idle Sync allocates %v times per call, want 0", allocs)
	}
	if len(b.fracs) != 1 || b.Renegotiations() != 1 || b.Fraction() != 0.9 {
		t.Fatalf("idle Syncs published: %+v (renegs=%d frac=%v)", b.fracs, b.Renegotiations(), b.Fraction())
	}
}
