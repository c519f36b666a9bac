package scenario

import (
	"math"
	"testing"
)

// stormSpec is the storm benchmark's spec (benchmark/workloads/storm.json)
// cut to 48 epochs: radiation SEU bursts and a thermal derate of every
// link over a 12-pod fleet.
const stormSpec = `{
  "name": "storm", "seed": 1, "epochs": 48,
  "topology": {"pods": 12, "leaves": 10, "spines": 6, "hosts_per_leaf": 8, "link_rate_bps": 100e9},
  "workloads": [
    {"kind": "diurnal", "peak_load": 0.6, "mean_bits": 3e9},
    {"kind": "allreduce", "groups": 8, "group_size": 16, "rounds_per_epoch": 1, "flow_bits": 2e9},
    {"kind": "storage", "writes_per_epoch": 32, "fanout": 3, "flow_bits": 4e9}
  ],
  "environments": [
    {"kind": "radiation", "seu_rate": 0.05, "seu_fraction": 0.35,
     "burst_rate": 0.25, "burst_span": 8, "burst_epochs": 3, "burst_fraction": 0.5},
    {"kind": "thermal", "base_k": 300, "swing_k": 60, "period_epochs": 40, "margin_db": 3}
  ]
}`

// TestRunAccountingPinned holds Run's completion accounting to the values
// it gave when it merged the whole run's records at the end, bit for bit:
// draining each barrier's records must book every completion into the
// same window and sum BitsDone in the same order.
func TestRunAccountingPinned(t *testing.T) {
	storm, err := Parse([]byte(stormSpec))
	if err != nil {
		t.Fatal(err)
	}
	type pin struct {
		done, stalled int
		bits          uint64
		windows       []WindowStat
	}
	w := func(start, end, flows, unroutable, env, done int, bits uint64, active, cross int) WindowStat {
		return WindowStat{Start: start, End: end, Flows: flows, Unroutable: unroutable, EnvEvents: env,
			Done: done, BitsDone: math.Float64frombits(bits), ActiveEnd: active, CrossEnd: cross}
	}
	for _, tc := range []struct {
		spec Spec
		want pin
	}{
		{mixedSpec(60), pin{8623, 0, 0x42a63ad44b66528c, []WindowStat{
			w(0, 10, 1058, 0, 47, 998, 0x42779734de180b6a, 60, 60),
			w(10, 20, 1512, 0, 41, 1531, 0x427e4eec6cf58b25, 41, 40),
			w(20, 30, 1858, 0, 38, 1854, 0x42810e0af1ffd2d5, 45, 45),
			w(30, 40, 1991, 0, 33, 1972, 0x4281ccd65f29e6b7, 64, 64),
			w(40, 50, 1380, 0, 38, 1443, 0x427fc12e156392e9, 1, 1),
			w(50, 60, 824, 0, 42, 825, 0x42767990586df498, 0, 0),
		}}},
		{storm, pin{24491, 0, 0x42cfc6a8e0fe3059, []WindowStat{
			w(0, 8, 2117, 0, 659, 2102, 0x4294c5283888a541, 15, 15),
			w(8, 16, 3947, 0, 681, 3563, 0x429b8f94a9eecd98, 399, 399),
			w(16, 24, 5923, 0, 729, 4747, 0x429b16e8ee5988d6, 1575, 1574),
			w(24, 32, 6068, 0, 702, 5869, 0x42a529963d5fdea7, 1774, 1774),
			w(32, 40, 4237, 0, 671, 5326, 0x42b0a7efea12946a, 685, 685),
			w(40, 48, 2261, 0, 722, 2884, 0x42b175ad45059e9a, 62, 62),
		}}},
	} {
		res, err := Run(tc.spec, Options{Workers: 2})
		if err != nil {
			t.Fatal(err)
		}
		if res.Done != tc.want.done || res.Stalled != tc.want.stalled || math.Float64bits(res.BitsDone) != tc.want.bits {
			t.Errorf("%s: done %d stalled %d bits %#x, want %d %d %#x", tc.spec.Name,
				res.Done, res.Stalled, math.Float64bits(res.BitsDone), tc.want.done, tc.want.stalled, tc.want.bits)
		}
		if len(res.Windows) != len(tc.want.windows) {
			t.Fatalf("%s: %d windows, want %d", tc.spec.Name, len(res.Windows), len(tc.want.windows))
		}
		for i, got := range res.Windows {
			// Compared as bits: a NaN or -0 must not pass for its twin.
			want := tc.want.windows[i]
			gb, wb := math.Float64bits(got.BitsDone), math.Float64bits(want.BitsDone)
			got.BitsDone, want.BitsDone = 0, 0
			if got != want || gb != wb {
				t.Errorf("%s window %d: %+v bits %#x, want %+v bits %#x", tc.spec.Name, i, got, gb, want, wb)
			}
		}
	}
}
