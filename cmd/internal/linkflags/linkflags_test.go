package linkflags

import (
	"flag"
	"reflect"
	"sort"
	"testing"

	"mosaic/internal/phy"
)

func parseSoak(t *testing.T, args ...string) *Soak {
	t.Helper()
	fs := flag.NewFlagSet("test", flag.ContinueOnError)
	s := AddSoak(fs, 120, 0)
	if err := fs.Parse(args); err != nil {
		t.Fatal(err)
	}
	if err := s.Resolve(); err != nil {
		t.Fatal(err)
	}
	return s
}

// corrections runs one superframe of the same traffic over link at a
// uniform BER and returns the FEC corrections per physical channel — a
// fingerprint of where the channel model put its bit errors.
func corrections(t *testing.T, link *phy.Link, channels int) []uint64 {
	t.Helper()
	for c := 0; c < channels; c++ {
		link.SetChannelBER(c, 1e-3)
	}
	if _, _, err := link.Exchange(phy.SeededFrames(7, 24, 1500)); err != nil {
		t.Fatal(err)
	}
	out := make([]uint64, channels)
	for c := range out {
		out[c] = link.Monitor().Health(c).Corrections
	}
	return out
}

// The two directions of a -mac pair must not share an error stream: the
// reverse link is seeded seed+1 (linkmetricsd used to build both with the
// same seed, so acks saw exactly the forward errors).
func TestNewLinksSeedsReverseIndependently(t *testing.T) {
	s := parseSoak(t, "-mac", "-lanes", "16", "-spares", "2", "-unit", "63", "-workers", "1")
	l, err := s.NewLinks()
	if err != nil {
		t.Fatal(err)
	}
	if l.Rev == nil {
		t.Fatal("-mac built no reverse link")
	}
	if got, want := l.Rev.Config().Seed, l.Fwd.Config().Seed+1; got != want {
		t.Errorf("reverse seed = %d, want %d", got, want)
	}
	fwd, rev := corrections(t, l.Fwd, s.Channels()), corrections(t, l.Rev, s.Channels())
	var total uint64
	for _, n := range fwd {
		total += n
	}
	if total == 0 {
		t.Fatal("BER 1e-3 produced no corrections; the fingerprint is empty")
	}
	if reflect.DeepEqual(fwd, rev) {
		t.Errorf("forward and reverse links drew identical first-superframe errors: %v", fwd)
	}

	bare, err := parseSoak(t).NewLinks()
	if err != nil {
		t.Fatal(err)
	}
	if bare.Rev != nil {
		t.Error("a bare-PHY soak built a reverse link")
	}
}

// One declaration serves three CLIs, so its names and defaults are the
// CLIs' interface: pin them.
func TestFlagNamesAndDefaults(t *testing.T) {
	defaults := func(fs *flag.FlagSet) map[string]string {
		m := map[string]string{}
		fs.VisitAll(func(f *flag.Flag) { m[f.Name] = f.DefValue })
		return m
	}
	shared := map[string]string{"spares": "4", "fec": "rslite", "seed": "1", "mac": "false", "arq": "gbn", "vc": "1"}

	fs := flag.NewFlagSet("linksim", flag.ContinueOnError)
	AddLink(fs)
	AddMAC(fs)
	if got := defaults(fs); !reflect.DeepEqual(got, shared) {
		t.Errorf("Link+MAC flags = %v, want %v", got, shared)
	}

	want := map[string]string{
		"lanes": "100", "unit": "243", "workers": "0", "superframes": "240", "frames": "24",
		"framesize": "1500", "hazard": "0.0005", "maintain-every": "10", "keep-spares": "1", "spare-above": "1e-06",
	}
	for k, v := range shared {
		want[k] = v
	}
	fs = flag.NewFlagSet("linkmetricsd", flag.ContinueOnError)
	AddSoak(fs, 240, 0.0005)
	got := defaults(fs)
	if !reflect.DeepEqual(got, want) {
		var names []string
		for k := range got {
			names = append(names, k)
		}
		sort.Strings(names)
		t.Errorf("Soak flags = %v (%v), want %v", got, names, want)
	}
}

// -hazard is a per-superframe probability: outside [0, 1] it is refused,
// as fleetd refuses a design's hazard, while 1 (certain death) is kept.
func TestResolveRefusesHazardOutsideUnit(t *testing.T) {
	for _, h := range []string{"1.5", "-0.1", "NaN"} {
		fs := flag.NewFlagSet("test", flag.ContinueOnError)
		s := AddSoak(fs, 120, 0)
		if err := fs.Parse([]string{"-hazard", h}); err != nil {
			t.Fatal(err)
		}
		if err := s.Resolve(); err == nil {
			t.Errorf("-hazard %s resolved", h)
		}
	}
	if s := parseSoak(t, "-hazard", "1"); len(s.RandomKills(1).Events) != s.Channels() {
		t.Error("-hazard 1 did not kill every channel")
	}
}

// Both modes run through the same Round and report the same shape.
func TestRoundBothModes(t *testing.T) {
	for _, args := range [][]string{
		{"-superframes", "12", "-lanes", "16", "-spares", "2", "-unit", "63", "-hazard", "0.01", "-workers", "1"},
		{"-superframes", "12", "-lanes", "16", "-spares", "2", "-unit", "63", "-hazard", "0.01", "-workers", "1", "-mac", "-arq", "sr", "-vc", "3", "-frames", "6", "-framesize", "150"},
	} {
		s := parseSoak(t, args...)
		l, err := s.NewLinks()
		if err != nil {
			t.Fatal(err)
		}
		rep, err := s.Round(l, s.RandomKills(s.Seed), nil)
		if err != nil {
			t.Fatalf("%v: %v", args, err)
		}
		if rep.Result == nil || rep.Summary == "" || len(rep.Log) == 0 {
			t.Errorf("%v: empty report %+v", args, rep)
		}
	}
	// A round that cannot start reports no partial result.
	s := parseSoak(t, "-superframes", "0")
	l, err := s.NewLinks()
	if err != nil {
		t.Fatal(err)
	}
	if rep, err := s.Round(l, s.RandomKills(1), nil); err == nil || rep != nil {
		t.Errorf("zero-superframe round: rep=%v err=%v, want nil report and an error", rep, err)
	}
}
