package main

import (
	"flag"
	"reflect"
	"sort"
	"testing"

	"mosaic/internal/faultinject"
	"mosaic/internal/phy"
)

func parseSoak(t *testing.T, args ...string) *Soak {
	t.Helper()
	fs := flag.NewFlagSet("test", flag.ContinueOnError)
	s := AddSoak(fs)
	if err := fs.Parse(args); err != nil {
		t.Fatal(err)
	}
	if err := s.Resolve(fs); err != nil {
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
// reverse link is seeded seed+1, so acks do not see exactly the forward
// errors.
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

// linksoak's flag names and defaults are its interface: pin the whole
// set (the shared Link and MAC blocks are also pinned in linkflags).
func TestFlagNamesAndDefaults(t *testing.T) {
	want := map[string]string{
		"spares": "4", "fec": "rslite", "seed": "1", "mac": "false", "arq": "gbn", "vc": "1",
		"lanes": "100", "unit": "243", "workers": "0", "superframes": "120", "frames": "24",
		"framesize": "1500", "hazard": "0", "maintain-every": "10", "keep-spares": "1", "spare-above": "1e-06",
		"schedule": "", "scenario": "", "dump": "", "metrics": "", "json": "false",
		"trials": "0", "serve": "", "rounds": "0", "max-retx-rate": "0.5",
	}
	fs := flag.NewFlagSet("linksoak", flag.ContinueOnError)
	AddSoak(fs)
	got := map[string]string{}
	fs.VisitAll(func(f *flag.Flag) { got[f.Name] = f.DefValue })
	if !reflect.DeepEqual(got, want) {
		var names []string
		for k := range got {
			names = append(names, k)
		}
		sort.Strings(names)
		t.Errorf("linksoak flags = %v (%v), want %v", got, names, want)
	}
}

// -hazard is a per-superframe probability: outside [0, 1] it is refused,
// as fleetd refuses a design's hazard, while 1 (certain death) is kept.
func TestResolveRefusesHazardOutsideUnit(t *testing.T) {
	for _, h := range []string{"1.5", "-0.1", "NaN"} {
		fs := flag.NewFlagSet("test", flag.ContinueOnError)
		s := AddSoak(fs)
		if err := fs.Parse([]string{"-hazard", h}); err != nil {
			t.Fatal(err)
		}
		if err := s.Resolve(fs); err == nil {
			t.Errorf("-hazard %s resolved", h)
		}
	}
	s := parseSoak(t, "-hazard", "1")
	if sched, err := s.buildSchedule(1); err != nil || len(sched.Events) != s.Channels() {
		t.Errorf("-hazard 1 did not kill every channel: %v", err)
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
		sched, err := s.buildSchedule(s.Seed)
		if err != nil {
			t.Fatal(err)
		}
		rep, err := s.Round(l, sched, nil)
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
	if rep, err := s.Round(l, faultinject.Schedule{}, nil); err == nil || rep != nil {
		t.Errorf("zero-superframe round: rep=%v err=%v, want nil report and an error", rep, err)
	}
}
