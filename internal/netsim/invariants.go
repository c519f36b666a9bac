package netsim

import "fmt"

// This file is the fleet engine's self-check surface: an exported
// invariant validator over the sharded allocation, callable at the
// instant rates are globally consistent. The scenario conformance
// harness (internal/scenario) asserts these properties every epoch for
// every registered scenario; the deep netsim property suite asserts the
// same two properties for FlowSim.

// SetResolvedHook installs fn to run inside every Step, at the one
// sequential point where the epoch's rates are fully resolved: after
// phase C's corrective waterfill, before cross completions resolve and
// the shards unindex their proxies and complete their due flows. At that instant every dirty
// component has been re-filled, so conservation and per-shard max-min
// hold exactly — the natural place to call CheckInvariants. nil removes
// the hook.
func (fs *FleetSim) SetResolvedHook(fn func()) { fs.onResolved = fn }

// CheckInvariants validates the two fluid-model properties on the
// current allocation:
//
//  1. Conservation: on every link, the rates of the flows crossing it
//     (local flows and pinned cross-flow proxies alike) sum to no more
//     than the link's current capacity.
//  2. Bottleneck saturation (max-min): every active local flow has at
//     least one saturated link on its path — otherwise progressive
//     filling could raise it. Cross-flow proxies are exempt: a proxy is
//     pinned to the min of its shards' offers, which legitimately
//     leaves the non-binding shard's links unsaturated (the documented
//     bounded-staleness of the fleet model).
//
// It also checks the bookkeeping: no arrival left pending past phase A,
// each shard's active count equal to its live local flows, and the
// cross-key list phase B walks holding exactly the live cross flows,
// each once, in ascending ID.
//
// Tolerances match the package's conservation test: 1e-9 relative plus
// 1 bps absolute, so float accumulation over a fleet cannot produce a
// spurious failure. It returns nil when all of these hold.
//
// Call it from a SetResolvedHook: between barriers (after Step returns)
// completed flows have already freed capacity without a re-fill, so the
// saturation property transiently and legitimately does not hold.
func (fs *FleetSim) CheckInvariants() error {
	// Accumulate per-link allocated rate from each shard's link index.
	// A link is only ever indexed by its owning shard, so no flow is
	// double-counted (a cross flow appears once per shard, as the proxy
	// restricted to that shard's links).
	sum := make([]float64, len(fs.capacity))
	for _, sh := range fs.shards {
		for l, idx := range sh.g.linkFlows {
			for _, ref := range idx.refs {
				if ref.pi >= 0 {
					sum[sh.g.base+l] += sh.g.flows.v[ref.h].rate
				}
			}
		}
	}
	for l, s := range sum {
		if cap := fs.capacity[l]; s > cap*(1+1e-9)+1 {
			return fmt.Errorf("netsim: link %d oversubscribed: %.6g bps allocated on %.6g bps capacity", l, s, cap)
		}
	}
	saturated := func(l int) bool {
		return sum[l] >= fs.capacity[l]*(1-1e-9)-1
	}
	for s, sh := range fs.shards {
		if len(sh.pending) > 0 {
			return fmt.Errorf("netsim: shard %d still holds %d arrivals phase A did not admit", s, len(sh.pending))
		}
		locals := 0
		for i := range sh.g.flows.v {
			f := &sh.g.flows.v[i]
			if !sh.g.flows.used[i] || f.proxy {
				continue
			}
			locals++
			ok := false
			for _, l := range f.links() {
				if saturated(sh.g.base + int(l)) {
					ok = true
					break
				}
			}
			if !ok {
				return fmt.Errorf("netsim: flow %d (rate %.6g) has no saturated link on its path — allocation is not max-min", f.ID, f.rate)
			}
		}
		if locals != sh.active {
			return fmt.Errorf("netsim: shard %d counts %d active flows but holds %d local flows", s, sh.active, locals)
		}
	}
	if len(fs.crossKeys) != fs.cross.live() {
		return fmt.Errorf("netsim: %d cross keys for %d live cross flows", len(fs.crossKeys), fs.cross.live())
	}
	for i, k := range fs.crossKeys {
		h, id := handle(k), int(k>>32)
		if !fs.cross.used[h] || fs.cross.v[h].ID != id {
			return fmt.Errorf("netsim: cross key %d names flow %d in slot %d, which does not hold it", i, id, h)
		}
		if i > 0 && id <= int(fs.crossKeys[i-1]>>32) {
			return fmt.Errorf("netsim: cross key %d (flow %d) does not ascend past flow %d", i, id, fs.crossKeys[i-1]>>32)
		}
	}
	return nil
}
