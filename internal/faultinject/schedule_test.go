package faultinject

import (
	"bytes"
	"math/rand"
	"reflect"
	"strings"
	"testing"
)

func TestEventValidate(t *testing.T) {
	bad := []Event{
		{At: -1, Kind: KindKill},
		{Kind: KindKill, Channel: -2},
		{Kind: KindAging, BER: 0, Duration: 5},
		{Kind: KindAging, BER: 1e-4, Duration: 0},
		{Kind: KindBurst, BER: 0.9, Duration: 3},
		{Kind: KindCorrelated, Span: 0},
		{Kind: Kind("meteor")},
	}
	for _, e := range bad {
		if e.Validate() == nil {
			t.Errorf("event %+v should not validate", e)
		}
	}
	good := []Event{
		{Kind: KindKill, Channel: 3},
		{At: 7, Kind: KindAging, Channel: 1, BER: 1e-3, Duration: 10},
		{At: 2, Kind: KindBurst, Channel: 0, BER: 1e-4, Duration: 4},
		{At: 9, Kind: KindCorrelated, Channel: 8, Span: 4},
	}
	for _, e := range good {
		if err := e.Validate(); err != nil {
			t.Errorf("event %+v: %v", e, err)
		}
	}
}

func TestScheduleOrderValidation(t *testing.T) {
	s := Schedule{Events: []Event{
		{At: 5, Kind: KindKill, Channel: 1},
		{At: 2, Kind: KindKill, Channel: 2},
	}}
	if s.Validate() == nil {
		t.Fatal("out-of-order schedule validated")
	}
	s.Sort()
	if err := s.Validate(); err != nil {
		t.Fatalf("sorted schedule: %v", err)
	}
}

func TestScheduleJSONRoundTrip(t *testing.T) {
	s, err := DefaultScenario(20, 40)
	if err != nil {
		t.Fatal(err)
	}
	s.Seed = 42
	var buf bytes.Buffer
	if err := s.Encode(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := Decode(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(s, got) {
		t.Fatalf("round trip mismatch:\n%+v\n%+v", s, got)
	}
}

func TestDecodeRejectsUnknownFields(t *testing.T) {
	_, err := Decode(strings.NewReader(`{"events":[{"at":0,"kind":"kill","channel":1,"laser":true}]}`))
	if err == nil {
		t.Fatal("unknown field accepted")
	}
}

func TestRandomKillsDeterministicAndSorted(t *testing.T) {
	a := RandomKills(rand.New(rand.NewSource(9)), 50, 0.01, 100)
	b := RandomKills(rand.New(rand.NewSource(9)), 50, 0.01, 100)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("same seed produced different schedules")
	}
	if err := a.Validate(); err != nil {
		t.Fatal(err)
	}
	if len(a.Events) == 0 {
		t.Fatal("hazard 0.01 over 100 sf on 50 channels produced no kills")
	}
	for _, e := range a.Events {
		if e.Kind != KindKill || e.At >= 100 {
			t.Fatalf("unexpected event %v", e)
		}
	}
}

// A hazard of 1 is certain death, not none: every channel is killed in
// superframe 0.
func TestRandomKillsCertainDeath(t *testing.T) {
	s := RandomKills(rand.New(rand.NewSource(1)), 8, 1, 10)
	if len(s.Events) != 8 {
		t.Fatalf("hazard 1 on 8 channels scheduled %d kills, want 8", len(s.Events))
	}
	for c, e := range s.Events {
		if e != (Event{At: 0, Kind: KindKill, Channel: c}) {
			t.Fatalf("event %d is %v, want a kill of channel %d at superframe 0", c, e, c)
		}
	}
}

func TestRandomKillsRate(t *testing.T) {
	// With hazard p over horizon T the expected kill fraction is
	// 1-(1-p)^T; check the generator within a loose band.
	const channels, horizon = 4000, 50
	const p = 0.005
	s := RandomKills(rand.New(rand.NewSource(3)), channels, p, horizon)
	want := 1 - pow(1-p, horizon)
	got := float64(len(s.Events)) / channels
	if got < want*0.8 || got > want*1.2 {
		t.Fatalf("kill fraction %.4f, want ~%.4f", got, want)
	}
}

func pow(b float64, n int) float64 {
	out := 1.0
	for i := 0; i < n; i++ {
		out *= b
	}
	return out
}
