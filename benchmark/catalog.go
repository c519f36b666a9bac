package main

// The metric catalog. BENCHMARK.json at the repo root lists the same
// names, units and directions (smoke_test.go holds the two together);
// what the schema of that file has no room for lives here: which
// end-to-end metric a layer metric should move, on which workload, and
// on which workloads its layer runs at all.

type metricDef struct {
	Name   string
	Unit   string
	Better string  // "lower" or "higher"
	Bound  float64 // end-to-end only: share of the base by which it may worsen
	Moves  string  // per-layer only: the end-to-end effect to expect
	On     string  // per-layer only: workloads where the layer runs, "" = all
}

const (
	wLinkClean = "link_clean"
	wLinkARQ   = "link_noisy_arq"
	wFleetDay  = "fleet_day"
	wStorm     = "scenario_storm"
	wServe     = "fleetd_serve"
)

// endToEnd is what a user of the system feels, in host time. The same
// four on every workload; the unit of "work" and "op" is per workload.
var endToEnd = []metricDef{
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25},
	{Name: "work_per_s", Unit: "1/s", Better: "higher", Bound: 0.25},
	{Name: "op_ms_p50", Unit: "ms", Better: "lower", Bound: 0.25},
	{Name: "host_mem_mb", Unit: "MB", Better: "lower", Bound: 0.25},
}

const phyAll = wLinkClean + "," + wLinkARQ

var perLayer = []metricDef{
	// PHY, seen from outside ExchangeInto / Exchange.
	{Name: "phy.exchange_us_p50", Unit: "us", Better: "lower", On: phyAll, Moves: "op_ms_p50, work_per_s on link_clean (whole op) and link_noisy_arq (2 per tick)"},
	{Name: "phy.exchange_us_tail", Unit: "us", Better: "lower", On: phyAll, Moves: "driver.op_ms_tail on both link workloads"},
	// PHY stage replay (public kernels, workers=1, the workload's bytes).
	{Name: "phy.encode_ns_per_bit", Unit: "ns/bit", Better: "lower", On: phyAll, Moves: "serial share of op_ms_p50 on link_clean"},
	{Name: "phy.scramble_ns_per_bit", Unit: "ns/bit", Better: "lower", On: phyAll, Moves: "serial share of op_ms_p50 on link_clean"},
	{Name: "phy.descramble_ns_per_bit", Unit: "ns/bit", Better: "lower", On: phyAll, Moves: "serial share of op_ms_p50 on link_clean"},
	{Name: "phy.blockdecode_ns_per_bit", Unit: "ns/bit", Better: "lower", On: phyAll, Moves: "serial share of op_ms_p50 on link_clean"},
	{Name: "phy.fec_encode_ns_per_bit", Unit: "ns/bit", Better: "lower", On: phyAll, Moves: "pooled share of op_ms_p50 on both link workloads"},
	{Name: "phy.channel_ns_per_bit", Unit: "ns/bit", Better: "lower", On: phyAll, Moves: "pooled share of op_ms_p50; large on link_noisy_arq, near zero on link_clean"},
	{Name: "phy.fec_decode_ns_per_bit", Unit: "ns/bit", Better: "lower", On: phyAll, Moves: "pooled share of op_ms_p50; full RS decode on link_noisy_arq, clean shortcut on link_clean"},
	{Name: "phy.unattributed_frac", Unit: "ratio", Better: "lower", On: phyAll, Moves: "dispatch/fold/monitor glue; op_ms_p50 on fleetd_serve-style narrow exchanges"},
	{Name: "phy.new_ms", Unit: "ms", Better: "lower", On: phyAll, Moves: "setup_s on both link workloads and (x2 per link) fleetd_serve"},
	{Name: "phy.wire_efficiency", Unit: "ratio", Better: "higher", On: phyAll, Moves: "simulated: must not move for a perf-only change"},
	{Name: "phy.corrections_per_exchange", Unit: "count", Better: "lower", On: phyAll, Moves: "simulated: must not move for a perf-only change"},
	{Name: "phy.units_lost_ratio", Unit: "ratio", Better: "lower", On: phyAll, Moves: "simulated: must not move for a perf-only change"},

	// MAC, link_noisy_arq only.
	{Name: "mac.send_ns_per_pkt", Unit: "ns", Better: "lower", On: wLinkARQ, Moves: "op_ms_p50, runtime.allocs_per_op on link_noisy_arq, capped by mac.self_frac_of_tick"},
	{Name: "mac.build_us_per_sf", Unit: "us", Better: "lower", On: wLinkARQ, Moves: "op_ms_p50, work_per_s on link_noisy_arq, capped by mac.self_frac_of_tick"},
	{Name: "mac.accept_us_per_sf", Unit: "us", Better: "lower", On: wLinkARQ, Moves: "op_ms_p50, work_per_s on link_noisy_arq, capped by mac.self_frac_of_tick"},
	{Name: "mac.self_frac_of_tick", Unit: "ratio", Better: "lower", On: wLinkARQ, Moves: "the most a MAC-only change can save of op_ms_p50 on link_noisy_arq"},
	{Name: "mac.frame_roundtrip_ns", Unit: "ns", Better: "lower", On: wLinkARQ, Moves: "same as build/accept; ties to BenchmarkMACFrameRoundTrip"},
	{Name: "mac.retx_ratio", Unit: "ratio", Better: "lower", On: wLinkARQ, Moves: "simulated; driver.fail_ratio on link_noisy_arq if it drifts"},
	{Name: "mac.goodput_ratio", Unit: "ratio", Better: "higher", On: wLinkARQ, Moves: "simulated; useful bytes over bytes handed to the PHY"},
	{Name: "mac.timeouts_per_ktick", Unit: "count", Better: "lower", On: wLinkARQ, Moves: "simulated"},
	{Name: "mac.credit_stalls_per_ktick", Unit: "count", Better: "lower", On: wLinkARQ, Moves: "simulated"},
	{Name: "mac.reordered_per_ktick", Unit: "count", Better: "lower", On: wLinkARQ, Moves: "simulated"},
	{Name: "mac.discarded_per_ktick", Unit: "count", Better: "lower", On: wLinkARQ, Moves: "simulated"},
	{Name: "mac.drain_ticks", Unit: "count", Better: "lower", On: wLinkARQ, Moves: "simulated; ticks the end-of-run drain needed"},

	// netsim, driven directly on fleet_day.
	{Name: "netsim.topology_build_ms", Unit: "ms", Better: "lower", On: wFleetDay + "," + wStorm, Moves: "setup_s on fleet_day, scenario_storm, fleetd_serve"},
	{Name: "netsim.inject_ns_per_flow", Unit: "ns", Better: "lower", On: wFleetDay, Moves: "work_per_s, runtime.allocs_per_op on fleet_day"},
	{Name: "netsim.records_ns_per_flow", Unit: "ns", Better: "lower", On: wFleetDay, Moves: "work_per_s on fleet_day"},
	{Name: "netsim.setfrac_ns_per_call", Unit: "ns", Better: "lower", On: wFleetDay, Moves: "op_ms_p50 on scenario_storm (fraction churn); minor on fleet_day"},
	{Name: "netsim.step_ms_p50", Unit: "ms", Better: "lower", On: wFleetDay, Moves: "op_ms_p50, work_per_s on fleet_day"},
	{Name: "netsim.step_ms_max", Unit: "ms", Better: "lower", On: wFleetDay, Moves: "driver.op_ms_tail on fleet_day (the peak-hour epoch)"},
	{Name: "netsim.step_ns_per_rated_flow", Unit: "ns", Better: "lower", On: wFleetDay, Moves: "work_per_s on fleet_day; times rated_per_flow = cost per flow"},
	{Name: "netsim.rated_per_flow", Unit: "count", Better: "lower", On: wFleetDay, Moves: "work amplification; simulated, must repeat exactly"},
	{Name: "netsim.waterfills_per_epoch", Unit: "count", Better: "lower", On: wFleetDay, Moves: "simulated, must repeat exactly"},
	{Name: "netsim.peak_active_flows", Unit: "count", Better: "lower", On: wFleetDay, Moves: "sets host_mem_mb on fleet_day; simulated"},
	{Name: "netsim.peak_cross_flows", Unit: "count", Better: "lower", On: wFleetDay, Moves: "simulated"},
	{Name: "netsim.stalled_ratio", Unit: "ratio", Better: "lower", On: wFleetDay, Moves: "simulated; feeds driver.fail_ratio on fleet_day"},

	// scenario layer.
	{Name: "scenario.parse_us", Unit: "us", Better: "lower", On: wStorm, Moves: "setup_s on scenario_storm"},
	{Name: "scenario.witness_us", Unit: "us", Better: "lower", On: wStorm, Moves: "setup_s on scenario_storm; fleetd's scenario-bound admission cost"},
	{Name: "scenario.run_ms_per_epoch", Unit: "ms", Better: "lower", On: wStorm, Moves: "op_ms_p50, work_per_s on scenario_storm"},
	{Name: "scenario.flows_per_epoch", Unit: "count", Better: "higher", On: wStorm, Moves: "simulated"},
	{Name: "scenario.faults_per_epoch", Unit: "count", Better: "lower", On: wStorm, Moves: "simulated; capacity-fraction churn per epoch"},

	// fleetd and its HTTP shell.
	{Name: "fleetd.create_us_per_link", Unit: "us", Better: "lower", On: wServe, Moves: "setup_s on fleetd_serve"},
	{Name: "fleetd.bringup_epochs", Unit: "epochs", Better: "lower", On: wServe, Moves: "setup_s on fleetd_serve; simulated"},
	{Name: "fleetd.step_ms_p50", Unit: "ms", Better: "lower", On: wServe, Moves: "op_ms_p50, work_per_s on fleetd_serve; bounds API lock-wait in the daemon"},
	{Name: "fleetd.step_ms_tail", Unit: "ms", Better: "lower", On: wServe, Moves: "driver.op_ms_tail on fleetd_serve"},
	{Name: "fleetd.step_us_per_live_link", Unit: "us", Better: "lower", On: wServe, Moves: "work_per_s on fleetd_serve"},
	{Name: "fleetd.api_create_us_p50", Unit: "us", Better: "lower", On: wServe, Moves: "op_ms_p50 on fleetd_serve, capped by fleetd.api_share_of_epoch"},
	{Name: "fleetd.api_degrade_us_p50", Unit: "us", Better: "lower", On: wServe, Moves: "op_ms_p50 on fleetd_serve, capped by fleetd.api_share_of_epoch"},
	{Name: "fleetd.api_renegotiate_us_p50", Unit: "us", Better: "lower", On: wServe, Moves: "op_ms_p50 on fleetd_serve, capped by fleetd.api_share_of_epoch"},
	{Name: "fleetd.api_retire_us_p50", Unit: "us", Better: "lower", On: wServe, Moves: "op_ms_p50 on fleetd_serve, capped by fleetd.api_share_of_epoch"},
	{Name: "fleetd.api_inspect_us_p50", Unit: "us", Better: "lower", On: wServe, Moves: "op_ms_p50 on fleetd_serve, capped by fleetd.api_share_of_epoch"},
	{Name: "fleetd.api_list_us_p50", Unit: "us", Better: "lower", On: wServe, Moves: "op_ms_p50 on fleetd_serve, capped by fleetd.api_share_of_epoch"},
	{Name: "fleetd.api_us_tail", Unit: "us", Better: "lower", On: wServe, Moves: "driver.op_ms_tail on fleetd_serve"},
	{Name: "fleetd.api_share_of_epoch", Unit: "ratio", Better: "lower", On: wServe, Moves: "the most an API-path change can save of op_ms_p50 on fleetd_serve"},
	{Name: "fleetd.pool_tasks_per_epoch", Unit: "count", Better: "lower", On: wServe, Moves: "pool work per epoch; simulated"},
	{Name: "fleetd.pool_steals_per_epoch", Unit: "count", Better: "lower", On: wServe, Moves: "scheduling-dependent: the one count that need not repeat"},
	{Name: "fleetd.eventlog_lines_per_epoch", Unit: "count", Better: "lower", On: wServe, Moves: "log work per epoch; simulated"},
	{Name: "fleetd.shed_ratio", Unit: "ratio", Better: "lower", On: wServe, Moves: "unexpected sheds feed driver.fail_ratio on fleetd_serve"},
	{Name: "fleetd.dropped_links", Unit: "count", Better: "lower", On: wServe, Moves: "feeds driver.fail_ratio on fleetd_serve"},
	{Name: "telemetry.scrape_us_p50", Unit: "us", Better: "lower", On: wServe, Moves: "op_ms_p50 on fleetd_serve (small)"},
	{Name: "telemetry.scrape_kb", Unit: "KB", Better: "lower", On: wServe, Moves: "telemetry.scrape_us_p50"},
	{Name: "telemetry.healthz_us_p50", Unit: "us", Better: "lower", On: wServe, Moves: "op_ms_p50 on fleetd_serve (small)"},

	// Go runtime, every workload.
	{Name: "runtime.allocs_per_op", Unit: "count", Better: "lower", Moves: "host_mem_mb and GC share of op_ms_p50"},
	{Name: "runtime.alloc_kb_per_op", Unit: "KB", Better: "lower", Moves: "host_mem_mb and GC share of op_ms_p50"},
	{Name: "runtime.heap_peak_mb", Unit: "MB", Better: "lower", Moves: "host_mem_mb"},
	{Name: "runtime.gc_cycles", Unit: "count", Better: "lower", Moves: "explains runtime.gc_pause_ms and tails"},
	{Name: "runtime.gc_pause_ms", Unit: "ms", Better: "lower", Moves: "driver.op_ms_tail"},

	// The benchmark's own tail, noise, tracing cost and failure share.
	{Name: "driver.op_ms_tail", Unit: "ms", Better: "lower", Moves: "tail of op_ms_p50's distribution; not gated"},
	{Name: "driver.segment_spread", Unit: "ratio", Better: "lower", Moves: "noise of work_per_s within the run"},
	{Name: "driver.trace_overhead_frac", Unit: "ratio", Better: "lower", Moves: "traced over untraced op_ms_p50, minus one"},
	{Name: "driver.fail_ratio", Unit: "ratio", Better: "lower", Moves: "failed over attempted; any increase is a regression"},
}

var unitByName = func() map[string]string {
	m := map[string]string{}
	for _, d := range endToEnd {
		m[d.Name] = d.Unit
	}
	for _, d := range perLayer {
		m[d.Name] = d.Unit
	}
	return m
}()

// unitOf panics on a name outside the catalog: a workload that reports
// an unlisted metric is a bug in the benchmark.
func unitOf(name string) string {
	u, ok := unitByName[name]
	if !ok {
		panic("benchmark: metric " + name + " is not in the catalog")
	}
	return u
}
