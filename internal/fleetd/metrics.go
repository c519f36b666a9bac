package fleetd

import "mosaic/internal/telemetry"

// The mosaic_fleetd_* series: one row table over the Fleet and one over a
// managed link, published through telemetry.Mirror at the epoch barrier
// (under the fleet lock, pool idle), so a scrape reads only the
// registry's atomics and never waits out an epoch.

var fleetRows = []telemetry.Row[Fleet]{
	{Name: "mosaic_fleetd_links", Help: "managed links per lifecycle state", Labels: []string{"state", StateAdmitted.String()}, Level: func(f *Fleet) float64 { return float64(f.counts[StateAdmitted]) }},
	{Name: "mosaic_fleetd_links", Labels: []string{"state", StateBringUp.String()}, Level: func(f *Fleet) float64 { return float64(f.counts[StateBringUp]) }},
	{Name: "mosaic_fleetd_links", Labels: []string{"state", StateServing.String()}, Level: func(f *Fleet) float64 { return float64(f.counts[StateServing]) }},
	{Name: "mosaic_fleetd_links", Labels: []string{"state", StateDegraded.String()}, Level: func(f *Fleet) float64 { return float64(f.counts[StateDegraded]) }},
	{Name: "mosaic_fleetd_links", Labels: []string{"state", StateRenegotiating.String()}, Level: func(f *Fleet) float64 { return float64(f.counts[StateRenegotiating]) }},
	{Name: "mosaic_fleetd_links", Labels: []string{"state", StateDraining.String()}, Level: func(f *Fleet) float64 { return float64(f.counts[StateDraining]) }},
	{Name: "mosaic_fleetd_links", Labels: []string{"state", StateRetired.String()}, Level: func(f *Fleet) float64 { return float64(f.counts[StateRetired]) }},
	{Name: "mosaic_fleetd_admitted_total", Help: "links admitted into the fleet", Count: func(f *Fleet) uint64 { return f.adm.Admitted }},
	{Name: "mosaic_fleetd_retired_total", Help: "links retired out of the fleet", Count: func(f *Fleet) uint64 { return f.adm.Retired }},
	{Name: "mosaic_fleetd_shed_total", Help: "operations shed by the admission gate, by reason", Labels: []string{"reason", string(ShedRate)}, Count: func(f *Fleet) uint64 { return f.adm.ShedRate }},
	{Name: "mosaic_fleetd_shed_total", Labels: []string{"reason", string(ShedLinks)}, Count: func(f *Fleet) uint64 { return f.adm.ShedLinks }},
	{Name: "mosaic_fleetd_shed_total", Labels: []string{"reason", string(ShedTopology)}, Count: func(f *Fleet) uint64 { return f.adm.ShedTopology }},
	{Name: "mosaic_fleetd_shed_total", Labels: []string{"reason", string(ShedScrape)}, Count: func(f *Fleet) uint64 { return f.scrapeSheds.Load() }},
	{Name: "mosaic_fleetd_shed_total", Labels: []string{"reason", string(ShedDraining)}, Count: func(f *Fleet) uint64 { return f.adm.ShedDraining }},
	{Name: "mosaic_fleetd_epoch", Help: "completed fleet epochs", Level: func(f *Fleet) float64 { return float64(f.epoch) }},
	{Name: "mosaic_fleetd_links_live", Help: "live (non-retired) managed links", Level: func(f *Fleet) float64 { return float64(len(f.links)) }},
	{Name: "mosaic_fleetd_flows_active", Help: "in-flight flows in the fleet-wide flow simulator", Level: func(f *Fleet) float64 { return float64(f.fsim.ActiveFlows()) }},
	{Name: "mosaic_fleetd_flows_injected_total", Help: "background flows injected into the flow simulator", Count: func(f *Fleet) uint64 { return f.flowsInjected }},
	{Name: "mosaic_fleetd_flows_completed_total", Help: "background flows that finished", Count: func(f *Fleet) uint64 { done, _ := f.fsim.FlowTotals(); return done }},
	{Name: "mosaic_fleetd_flows_stalled_total", Help: "background flows that lost their last route", Count: func(f *Fleet) uint64 { _, stalled := f.fsim.FlowTotals(); return stalled }},
	{Name: "mosaic_fleetd_pool_workers", Help: "work-stealing pool workers", Level: func(f *Fleet) float64 { return float64(f.pool.Stats().Workers) }},
	{Name: "mosaic_fleetd_pool_depth", Help: "tasks in the current pool round", Level: func(f *Fleet) float64 { return float64(f.pool.Stats().Depth) }},
	{Name: "mosaic_fleetd_pool_tasks_total", Help: "pool tasks executed", Count: func(f *Fleet) uint64 { return f.pool.Stats().Tasks }},
	{Name: "mosaic_fleetd_pool_steals_total", Help: "pool tasks obtained by stealing", Count: func(f *Fleet) uint64 { return f.pool.Stats().Steals }},
	{Name: "mosaic_fleetd_pool_rounds_total", Help: "pool barrier rounds run", Count: func(f *Fleet) uint64 { return f.pool.Stats().Rounds }},
	{Name: "mosaic_fleetd_pool_late_total", Help: "pool helpers that arrived after their round closed", Count: func(f *Fleet) uint64 { return f.pool.Stats().Late }},
}

// linkRows is one managed link's gauge set, labelled link="<id>":
// attached at admission (inside the DetailLinks budget), detached at
// retirement.
var linkRows = []telemetry.Row[managedLink]{
	{Name: "mosaic_fleetd_link_state", Level: func(m *managedLink) float64 { return float64(m.state) }},
	{Name: "mosaic_fleetd_link_lanes", Level: func(m *managedLink) float64 { return float64(m.lanes()) }},
	{Name: "mosaic_fleetd_link_fraction", Level: (*managedLink).fraction},
	{Name: "mosaic_fleetd_link_queued", Level: func(m *managedLink) float64 { return float64(m.queued) }},
	{Name: "mosaic_fleetd_link_delivered", Level: func(m *managedLink) float64 { return float64(m.delivered) }},
	{Name: "mosaic_fleetd_link_retransmits", Level: func(m *managedLink) float64 { return float64(m.retx) }},
}
