package mosaic

import (
	"os"
	"sort"
	"strings"
	"testing"

	"mosaic/internal/faultinject"
	"mosaic/internal/fleetd"
	"mosaic/internal/mac"
	"mosaic/internal/phy"
	"mosaic/internal/telemetry"
)

const catalogGolden = "testdata/series_catalog.txt"

// TestSeriesCatalog pins which series exist. Every collector is a row
// table published through telemetry.Mirror, so a mistyped, dropped or
// re-kinded row changes the sorted "kind name{labels}" list (values
// stripped) of one PHY soak, one -mac -arq sr -vc 3 session and one small
// fleet — and fails here, without a human diffing .prom files. After an
// intended change, add or drop the lines the failure names (the file is
// sorted).
func TestSeriesCatalog(t *testing.T) {
	newLink := func(seed int64) *phy.Link {
		link, err := phy.New(phy.Config{
			Lanes: 3, Spares: 1, FEC: phy.NewRSLite(), UnitLen: 63,
			PerChannelBitRate: 2e9, Seed: seed, Workers: 1,
		})
		if err != nil {
			t.Fatal(err)
		}
		return link
	}
	kill := faultinject.Schedule{Events: []faultinject.Event{{At: 1, Kind: faultinject.KindKill, Channel: 0}}}

	soak := telemetry.NewRegistry()
	if _, err := faultinject.Run(faultinject.Config{
		Link: newLink(1), Schedule: kill, Superframes: 4, FramesPerSF: 4, FrameLen: 120, Seed: 1,
		Metrics: soak,
	}); err != nil {
		t.Fatal(err)
	}

	session := telemetry.NewRegistry()
	var pc mac.PairConfig
	pc.Endpoint.ARQ, pc.Endpoint.VCs = mac.ARQSelectiveRepeat, 3
	var vcPackets []int
	pc.Endpoint.VCClass, vcPackets = mac.RoundRobinVCs(3, 6)
	fwd := newLink(2)
	sess, err := mac.NewSession(mac.SessionConfig{
		Fwd: fwd, Rev: newLink(3), Pair: pc, Schedule: kill,
		Superframes: 4, Interval: 1e-5, VCPackets: vcPackets, PacketLen: 100, Seed: 1,
		Bridge: mac.NewBridge(fwd), Metrics: session,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res := sess.Run(); res.Err != "" {
		t.Fatal(res.Err)
	}

	fleet := telemetry.NewRegistry()
	cfg := fleetd.DefaultConfig()
	cfg.Workers, cfg.Budgets.MaxLinks, cfg.Budgets.DetailLinks = 1, 32, 1
	f, err := fleetd.New(cfg, fleet)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Create(2, nil); err != nil {
		t.Fatal(err)
	}
	for epoch := 0; epoch < 4; epoch++ {
		f.Step()
	}

	var got []string
	for _, src := range []struct {
		name string
		reg  *telemetry.Registry
	}{{"soak", soak}, {"session", session}, {"fleet", fleet}} {
		snap := src.reg.Snapshot()
		for id := range snap.Counters {
			got = append(got, src.name+" counter "+id)
		}
		for id := range snap.Gauges {
			got = append(got, src.name+" gauge "+id)
		}
		for id := range snap.Histograms {
			got = append(got, src.name+" histogram "+id)
		}
	}
	sort.Strings(got)

	golden, err := os.ReadFile(catalogGolden)
	if err != nil {
		t.Fatal(err)
	}
	want := strings.Split(strings.TrimSpace(string(golden)), "\n")
	if strings.Join(got, "\n") == strings.Join(want, "\n") {
		return
	}
	in := func(list []string) map[string]bool {
		set := make(map[string]bool, len(list))
		for _, line := range list {
			set[line] = true
		}
		return set
	}
	inGot, inWant := in(got), in(want)
	for _, line := range got {
		if !inWant[line] {
			t.Errorf("series not in %s: %s", catalogGolden, line)
		}
	}
	for _, line := range want {
		if !inGot[line] {
			t.Errorf("series in %s no longer published: %s", catalogGolden, line)
		}
	}
	if !t.Failed() {
		t.Errorf("%s is not sorted", catalogGolden)
	}
}
