package faultinject

import (
	"testing"

	"mosaic/internal/phy"
)

// A value logged as a record renders, through String, the form fmt
// rendered before: every Event kind, every RemapEvent case, and a
// maintenance action around one.
func TestRecordsRenderTheStringForms(t *testing.T) {
	spared := phy.RemapEvent{Physical: 5, Lane: 1, Spare: 101}
	for _, tc := range []struct {
		v    interface{ String() string }
		want string
	}{
		{Event{At: 7, Kind: KindKill, Channel: 2}, "sf=7 kill ch=2"},
		{Event{At: 8, Kind: KindAging, Channel: 3, BER: 1e-5, Duration: 40}, "sf=8 aging ch=3 to=1.00e-05 over=40"},
		{Event{At: 9, Kind: KindBurst, Channel: 4, BER: 2.5e-3, Duration: 6}, "sf=9 burst ch=4 ber=2.50e-03 for=6"},
		{Event{At: 10, Kind: KindCorrelated, Channel: 5, Span: 4}, "sf=10 correlated ch=5 span=4"},
		{Event{At: 11, Kind: "flicker", Channel: 6}, "sf=11 flicker ch=6"},
		{phy.RemapEvent{Physical: 3, Lane: -1, Spare: -1}, "spare channel 3 failed (no traffic impact)"},
		{phy.RemapEvent{Physical: 4, Lane: 2, Spare: -1, Degraded: true}, "channel 4 (lane 2) failed, no spares: degraded to fewer lanes"},
		{spared, "channel 5 (lane 1) failed, remapped to spare 101"},
		{phy.MaintenanceAction{Physical: 5, EstimatedBER: 3.2e-6, Event: spared},
			"proactive: channel 5 at estBER 3.20e-06: channel 5 (lane 1) failed, remapped to spare 101"},
	} {
		if got := tc.v.String(); got != tc.want {
			t.Errorf("%#v renders %q, want %q", tc.v, got, tc.want)
		}
	}
}
