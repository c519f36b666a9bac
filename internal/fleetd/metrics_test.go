package fleetd

import (
	"strings"
	"testing"

	"mosaic/internal/mac"
	"mosaic/internal/par"
	"mosaic/internal/phy"
	"mosaic/internal/telemetry"
)

func expo(t *testing.T, r *telemetry.Registry) string {
	t.Helper()
	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	return b.String()
}

// TestFleetCollectorSync publishes a hand-set fleet through the fleet row
// table: every family, then the delta rule on re-sync.
func TestFleetCollectorSync(t *testing.T) {
	r := telemetry.NewRegistry()
	f, err := New(testConfig(8), r)
	if err != nil {
		t.Fatal(err)
	}
	f.counts[StateServing], f.counts[StateDraining] = 10, 2
	f.adm = AdmissionStats{Admitted: 12, Retired: 3, ShedRate: 4, ShedLinks: 1}
	f.epoch, f.flowsInjected = 42, 17
	for id := 0; id < 12; id++ {
		f.links = append(f.links, &managedLink{id: id})
	}
	for i := 0; i < 9; i++ { // nine flows in flight, none stepped
		if _, err := f.fsim.Inject(f.hosts[i], f.hosts[i+9], 1e9, uint64(i)); err != nil {
			t.Fatal(err)
		}
	}
	f.pool = par.New(8)
	for round := 0; round < 5; round++ {
		f.pool.Run(20, func(int) {})
	}
	f.metrics.Sync(f)

	out := expo(t, r)
	for _, want := range []string{
		`mosaic_fleetd_links{state="serving"} 10`,
		`mosaic_fleetd_links{state="draining"} 2`,
		"mosaic_fleetd_admitted_total 12",
		"mosaic_fleetd_retired_total 3",
		`mosaic_fleetd_shed_total{reason="rate"} 4`,
		`mosaic_fleetd_shed_total{reason="links"} 1`,
		"mosaic_fleetd_pool_workers 8",
		"mosaic_fleetd_pool_tasks_total 100",
		"mosaic_fleetd_pool_rounds_total 5",
		"mosaic_fleetd_pool_depth 0", // the barrier runs between rounds
		"mosaic_fleetd_epoch 42",
		"mosaic_fleetd_flows_active 9",
		"mosaic_fleetd_flows_injected_total 17",
		"mosaic_fleetd_flows_completed_total 0",
		"mosaic_fleetd_flows_stalled_total 0",
		"mosaic_fleetd_links_live 12",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q", want)
		}
	}
	if got := r.Counter("mosaic_fleetd_pool_steals_total").Value(); got != f.pool.Stats().Steals {
		t.Errorf("steals counter %d, pool says %d", got, f.pool.Stats().Steals)
	}

	// Delta-sync: re-syncing the same cumulative values adds nothing,
	// larger values add the difference.
	f.metrics.Sync(f)
	f.adm.Admitted, f.adm.ShedRate = 15, 6
	f.metrics.Sync(f)
	out = expo(t, r)
	if !strings.Contains(out, "mosaic_fleetd_admitted_total 15") {
		t.Error("admitted delta-sync wrong")
	}
	if !strings.Contains(out, `mosaic_fleetd_shed_total{reason="rate"} 6`) {
		t.Error("shed delta-sync wrong")
	}

	if allocs := testing.AllocsPerRun(100, func() { f.metrics.Sync(f) }); allocs != 0 {
		t.Errorf("fleet Sync allocates %v times per epoch, want 0", allocs)
	}
}

// builtLink is a managed link far enough along to publish: a spare-less
// PHY of the given width under a fresh bridge.
func builtLink(t *testing.T, lanes int) *managedLink {
	t.Helper()
	fwd, err := phy.New(phy.Config{Lanes: lanes, FEC: phy.NoFEC{}, UnitLen: 63, PerChannelBitRate: 2e9, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	return &managedLink{fwd: fwd, bridge: mac.NewBridge(fwd)}
}

func TestFleetLinkCollectorDetach(t *testing.T) {
	r := telemetry.NewRegistry()
	m := builtLink(t, 12)
	for ch := 0; ch < 3; ch++ {
		m.fwd.FailChannel(ch)
	}
	m.bridge.Sync()      // renegotiated at 9 of 12 lanes
	m.fwd.FailChannel(3) // a fourth lane shed since: 8 lanes, fraction still 0.75
	m.state, m.queued, m.delivered, m.retx = StateServing, 100, 90, 3
	mirror := telemetry.NewMirror(r, linkRows, "link", "17")
	mirror.Sync(m)

	out := expo(t, r)
	for _, want := range []string{
		`mosaic_fleetd_link_state{link="17"} 2`,
		`mosaic_fleetd_link_lanes{link="17"} 8`,
		`mosaic_fleetd_link_fraction{link="17"} 0.75`,
		`mosaic_fleetd_link_queued{link="17"} 100`,
		`mosaic_fleetd_link_delivered{link="17"} 90`,
		`mosaic_fleetd_link_retransmits{link="17"} 3`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q", want)
		}
	}
	if allocs := testing.AllocsPerRun(100, func() { mirror.Sync(m) }); allocs != 0 {
		t.Errorf("link Sync allocates %v times per epoch, want 0", allocs)
	}

	// A second link's gauges survive the first one's Detach.
	other := builtLink(t, 10)
	other.state = StateBringUp
	telemetry.NewMirror(r, linkRows, "link", "18").Sync(other)
	mirror.Detach()
	out = expo(t, r)
	if strings.Contains(out, `link="17"`) {
		t.Error("detached link still exposed")
	}
	if !strings.Contains(out, `mosaic_fleetd_link_lanes{link="18"} 10`) {
		t.Error("surviving link lost its gauges")
	}
}
