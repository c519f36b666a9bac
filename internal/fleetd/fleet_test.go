package fleetd

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"mosaic/internal/telemetry"
)

// testConfig is a small, fast fleet: wide enough to exercise sparing,
// small enough that a full lifecycle walk is milliseconds.
func testConfig(workers int) Config {
	cfg := DefaultConfig()
	cfg.Workers = workers
	cfg.Budgets.MaxLinks = 64
	cfg.Budgets.StepBudget = 0 // step every serving link each epoch
	cfg.Budgets.FlowsPerEpoch = 4
	cfg.Design.Hazard = 0 // faults come from explicit degrade ops
	return cfg
}

func stepUntil(t *testing.T, f *Fleet, pred func() bool, max int, what string) {
	t.Helper()
	for i := 0; i < max; i++ {
		if pred() {
			return
		}
		f.Step()
	}
	t.Fatalf("%s: not reached after %d epochs", what, max)
}

func stateOf(t *testing.T, f *Fleet, id int) State {
	t.Helper()
	s, ok := f.StateOf(id)
	if !ok {
		t.Fatalf("link %d unknown", id)
	}
	return s
}

// TestFleetLifecycleWalk drives one link through the full graph:
// admitted -> bring-up -> serving -> degraded -> renegotiating ->
// serving (at reduced width) -> draining -> retired, and checks the
// tombstone and the freed topology slot.
func TestFleetLifecycleWalk(t *testing.T) {
	f, err := New(testConfig(1), nil)
	if err != nil {
		t.Fatal(err)
	}
	ids, err := f.Create(1, nil)
	if err != nil || len(ids) != 1 {
		t.Fatalf("Create = %v, %v", ids, err)
	}
	id := ids[0]
	if got := stateOf(t, f, id); got != StateAdmitted {
		t.Fatalf("after admit: state %s", got)
	}

	stepUntil(t, f, func() bool { return stateOf(t, f, id) == StateServing }, 10, "serving")
	info, _ := f.Inspect(id)
	if info.Lanes != f.cfg.Design.Lanes || info.Fraction != 1 {
		t.Fatalf("serving link: lanes=%d frac=%v", info.Lanes, info.Fraction)
	}

	// Kill more channels than the spare pool covers: the next serving
	// epoch spares what it can, comes up short, and degrades.
	if err := f.degrade(id, f.cfg.Design.Spares+2); err != nil {
		t.Fatalf("degrade: %v", err)
	}
	stepUntil(t, f, func() bool { return stateOf(t, f, id) == StateDegraded }, 10, "degraded")
	info, _ = f.Inspect(id)
	if info.Lanes >= info.Contract {
		t.Fatalf("degraded link: lanes=%d contract=%d", info.Lanes, info.Contract)
	}
	// The bridge publishes the shed width in the epoch the kills land in
	// (the op line's epoch), not one later.
	var opEpoch string
	bridged := false
	for _, line := range f.EventLog() {
		epoch, rest, _ := strings.Cut(line, " ")
		switch {
		case strings.HasPrefix(rest, "op=degrade"):
			opEpoch = epoch
		case strings.Contains(rest, " bridge "):
			want := fmt.Sprintf("bridge lanes=%d frac=%.4f", info.Lanes, info.Fraction)
			if epoch != opEpoch || !strings.HasSuffix(rest, want) {
				t.Fatalf("bridge line %q, want %s ... %s", line, opEpoch, want)
			}
			bridged = true
		}
	}
	if !bridged {
		t.Fatalf("degrade past the spare pool logged no bridge line:\n%s", strings.Join(f.EventLog(), "\n"))
	}

	// Renegotiate commits the degraded width as the new contract.
	if err := f.renegotiate(id); err != nil {
		t.Fatalf("renegotiate: %v", err)
	}
	stepUntil(t, f, func() bool { return stateOf(t, f, id) == StateServing }, 10, "re-serving")
	info, _ = f.Inspect(id)
	if info.Contract != info.Lanes || info.Fraction >= 1 {
		t.Fatalf("renegotiated link: lanes=%d contract=%d frac=%v",
			info.Lanes, info.Contract, info.Fraction)
	}

	// Renegotiating a healthy link is a lifecycle conflict.
	var te *TransitionError
	if err := f.renegotiate(id); !errors.As(err, &te) {
		t.Fatalf("renegotiate while serving = %v, want *TransitionError", err)
	}

	if err := f.retire(id); err != nil {
		t.Fatalf("retire: %v", err)
	}
	stepUntil(t, f, func() bool { return stateOf(t, f, id) == StateRetired }, 20, "retired")
	info, ok := f.Inspect(id)
	if !ok || info.State != "retired" {
		t.Fatalf("tombstone: %+v ok=%v", info, ok)
	}
	if info.Delivered == 0 {
		t.Fatal("retired link delivered nothing")
	}
	if n := len(f.List(0)); n != 0 {
		t.Fatalf("%d live links after retirement", n)
	}
	if err := f.retire(id); !errors.Is(err, ErrUnknownLink) {
		t.Fatalf("retire retired link = %v, want ErrUnknownLink", err)
	}

	// The freed topology slot is reused by the next admission.
	oldTopo := info.TopoLink
	ids, err = f.Create(1, nil)
	if err != nil {
		t.Fatal(err)
	}
	next, _ := f.Inspect(ids[0])
	if next.TopoLink != oldTopo {
		t.Fatalf("freed slot %d not reused (got %d)", oldTopo, next.TopoLink)
	}
}

// TestFleetAdmissionSheds exercises every admission gate.
func TestFleetAdmissionSheds(t *testing.T) {
	cfg := testConfig(1)
	cfg.Budgets.MaxLinks = 4
	cfg.Budgets.AdmitPerEpoch = 1
	cfg.Budgets.AdmitBurst = 2
	f, err := New(cfg, nil)
	if err != nil {
		t.Fatal(err)
	}

	// Burst covers two; the third sheds on rate.
	ids, err := f.Create(3, nil)
	var shed *ShedError
	if !errors.As(err, &shed) || shed.Reason != ShedRate {
		t.Fatalf("Create(3) err = %v, want rate shed", err)
	}
	if len(ids) != 2 {
		t.Fatalf("Create(3) admitted %d, want 2", len(ids))
	}

	// Refill over two epochs, then the links budget bites at MaxLinks=4.
	f.Step()
	f.Step()
	if _, err := f.Create(2, nil); err != nil {
		t.Fatalf("refilled create: %v", err)
	}
	f.Step()
	if _, err = f.Create(1, nil); !errors.As(err, &shed) || shed.Reason != ShedLinks {
		t.Fatalf("over-MaxLinks create err = %v, want links shed", err)
	}

	adm := f.Admission()
	if adm.Admitted != 4 || adm.ShedRate != 1 || adm.ShedLinks != 1 {
		t.Fatalf("admission stats: %+v", adm)
	}

	// Draining fleets shed everything.
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if left := f.Drain(ctx); left != 0 {
		t.Fatalf("Drain left %d links", left)
	}
	if _, err = f.Create(1, nil); !errors.As(err, &shed) || shed.Reason != ShedDraining {
		t.Fatalf("create while draining err = %v, want draining shed", err)
	}
	if f.Snapshot().LiveLinks != 0 || !f.Snapshot().Draining {
		t.Fatalf("post-drain snapshot: %+v", f.Snapshot())
	}
}

func TestFleetReload(t *testing.T) {
	f, err := New(testConfig(1), nil)
	if err != nil {
		t.Fatal(err)
	}
	cfg := testConfig(1)
	cfg.Seed = 99
	if err := f.Reload(cfg); err == nil || !strings.Contains(err.Error(), "seed") {
		t.Fatalf("seed-changing reload = %v", err)
	}
	cfg = testConfig(2)
	if err := f.Reload(cfg); err == nil || !strings.Contains(err.Error(), "workers") {
		t.Fatalf("worker-changing reload = %v", err)
	}
	cfg = testConfig(1)
	cfg.Budgets.MaxLinks = 1
	cfg.Budgets.AdmitBurst = 1
	if err := f.Reload(cfg); err != nil {
		t.Fatalf("reload: %v", err)
	}
	var shed *ShedError
	if _, err := f.Create(2, nil); !errors.As(err, &shed) {
		t.Fatalf("create after tightening = %v, want shed", err)
	}
}

// TestCreateRacesReload admits default-design links while another
// goroutine reloads the default design: Create reads the default under
// the fleet lock Reload writes it under, so -race (make race) stays
// quiet. The goroutines overlap only over thousands of iterations.
func TestCreateRacesReload(t *testing.T) {
	const n = 5000
	f, err := New(testConfig(1), nil)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		for range n {
			f.Create(1, nil) // sheds past MaxLinks; the read of the default is the point
		}
	}()
	go func() {
		defer wg.Done()
		cfg := testConfig(1)
		for i := range n {
			cfg.Design.Lanes = 8 + i%8
			if err := f.Reload(cfg); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	wg.Wait()
	for _, info := range f.List(0) {
		if info.Nominal < 8 || info.Nominal >= 16 {
			t.Errorf("link %d admitted at %d lanes, a design no reload set", info.ID, info.Nominal)
		}
	}
}

// scenarioScript is the determinism witness's workload: admissions in
// waves, induced degradations, renegotiations, retirements, and a
// budget reload, spread over 40 epochs.
func scenarioScript() Script {
	s := Script{
		{Epoch: 0, Action: "create", Count: 12},
		{Epoch: 3, Action: "create", Count: 8},
		{Epoch: 5, Action: "degrade", Link: 2, Kill: 4},
		{Epoch: 5, Action: "degrade", Link: 7, Kill: 5},
		{Epoch: 8, Action: "renegotiate", Link: 2},
		{Epoch: 8, Action: "renegotiate", Link: 7},
		{Epoch: 10, Action: "retire", Link: 0},
		{Epoch: 10, Action: "retire", Link: 5},
		{Epoch: 12, Action: "create", Count: 4},
		{Epoch: 15, Action: "degrade", Link: 13, Kill: 2},
		{Epoch: 18, Action: "retire", Link: 13},
		{Epoch: 20, Action: "reload-budgets", Budgets: &Budgets{
			MaxLinks: 64, AdmitPerEpoch: 2, AdmitBurst: 2, StepBudget: 5,
			ScrapePerEpoch: 1024, DetailLinks: 8, FlowsPerEpoch: 4,
		}},
		{Epoch: 21, Action: "create", Count: 6}, // sheds past the tightened bucket
		{Epoch: 25, Action: "degrade", Link: 9, Kill: 4},
		{Epoch: 28, Action: "renegotiate", Link: 9},
		{Epoch: 30, Action: "retire", Link: 1},
		{Epoch: 30, Action: "retire", Link: 9},
		{Epoch: 31, Action: "renegotiate", Link: 9}, // lifecycle conflict, logged nowhere
		{Epoch: 32, Action: "degrade", Link: 999},   // unknown link, ignored
	}
	return s
}

func runScenario(t *testing.T, workers int) (string, []string) {
	t.Helper()
	cfg := testConfig(workers)
	cfg.Design.Hazard = 0.002 // seeded wear on top of explicit ops
	f, err := New(cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := f.Run(scenarioScript(), 40); err != nil {
		t.Fatal(err)
	}
	log := f.EventLog()
	h := sha256.Sum256([]byte(strings.Join(log, "\n")))
	return hex.EncodeToString(h[:]), log
}

// fleetScenarioGolden pins the scenario's event log. A legitimate
// behavior change re-pins it (run with -run TestFleetdDeterministic -v
// and copy the printed sha); an accidental one is a determinism break.
const fleetScenarioGolden = "1573e18d19e251e1a8941a5561191e75de150e6bfa9a04124ec08cf05c48f25e"

// TestFleetdDeterministicAcrossWorkers replays the scripted scenario at
// 1, 3, and GOMAXPROCS workers and requires byte-identical event logs
// — the worker-count-invariance contract — then pins the sha against
// the golden so cross-machine drift also surfaces.
func TestFleetdDeterministicAcrossWorkers(t *testing.T) {
	sha1w, log1 := runScenario(t, 1)
	t.Logf("fleet scenario sha=%s (%d log lines)", sha1w, len(log1))
	for _, workers := range []int{3, runtime.GOMAXPROCS(0)} {
		shaNw, logN := runScenario(t, workers)
		if shaNw != sha1w {
			diff := firstDiff(log1, logN)
			t.Fatalf("event log diverges at %d workers: sha %s vs %s\nfirst diff: %s",
				workers, shaNw, sha1w, diff)
		}
	}
	if sha1w != fleetScenarioGolden {
		t.Fatalf("event log sha = %s, golden = %s\n(re-pin only for an intentional behavior change)",
			sha1w, fleetScenarioGolden)
	}
}

func firstDiff(a, b []string) string {
	for i := 0; i < len(a) && i < len(b); i++ {
		if a[i] != b[i] {
			return fmt.Sprintf("line %d:\n  a: %s\n  b: %s", i, a[i], b[i])
		}
	}
	return fmt.Sprintf("length %d vs %d", len(a), len(b))
}

// TestConcurrentAdmissionDeterministic admits links from many
// goroutines at once, 50 iterations. Link identity (ID, seed, topology
// slot) is assigned under the fleet lock and derived from the ID alone,
// so the fleet that results — and the event log of the epochs that
// follow — must not depend on goroutine arrival order or map iteration
// order.
func TestConcurrentAdmissionDeterministic(t *testing.T) {
	var want string
	for iter := 0; iter < 50; iter++ {
		f, err := New(testConfig(2), nil)
		if err != nil {
			t.Fatal(err)
		}
		var wg sync.WaitGroup
		for g := 0; g < 8; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				if _, err := f.Create(2, nil); err != nil {
					t.Errorf("concurrent Create: %v", err)
				}
			}()
		}
		wg.Wait()
		for e := 0; e < 6; e++ {
			f.Step()
		}
		h := sha256.Sum256([]byte(strings.Join(f.EventLog(), "\n")))
		got := hex.EncodeToString(h[:])
		if iter == 0 {
			want = got
			continue
		}
		if got != want {
			t.Fatalf("iter %d: event log sha %s != %s", iter, got, want)
		}
	}
}

// TestEventLogCapIsVisible steps a fleet past its MaxLog: the log must
// freeze at exactly the cap, hold the same first lines as an uncapped
// twin, and say so — Snapshot (and so GET /v1/fleet) carries a drop
// count that keeps growing while the daemon runs on.
func TestEventLogCapIsVisible(t *testing.T) {
	const maxLog = 50
	run := func(cap int) *Fleet {
		cfg := testConfig(2)
		cfg.MaxLog = cap
		f, err := New(cfg, nil)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := f.Create(8, nil); err != nil {
			t.Fatal(err)
		}
		for e := 0; e < 80; e++ {
			f.Step()
		}
		return f
	}
	capped, twin := run(maxLog), run(0)

	got, want := capped.EventLog(), twin.EventLog()
	if len(want) <= maxLog {
		t.Fatalf("uncapped twin logged only %d lines; the run must exceed the cap", len(want))
	}
	if len(got) != maxLog {
		t.Fatalf("capped log has %d lines, want exactly %d", len(got), maxLog)
	}
	if d := firstDiff(got, want[:maxLog]); !strings.HasPrefix(d, "length") {
		t.Fatalf("capped log is not a prefix of the uncapped one: %s", d)
	}
	dropped := capped.Snapshot().LogDropped
	if wantDropped := uint64(len(want) - maxLog); dropped != wantDropped {
		t.Fatalf("event_log_dropped = %d, want %d (uncapped lines past the cap)", dropped, wantDropped)
	}
	capped.Step()
	if after := capped.Snapshot().LogDropped; after <= dropped {
		t.Errorf("event_log_dropped did not grow across an epoch: %d -> %d", dropped, after)
	}
	if len(capped.EventLog()) != maxLog {
		t.Errorf("log grew past the cap to %d lines", len(capped.EventLog()))
	}
	if twin.Snapshot().LogDropped != 0 {
		t.Errorf("uncapped twin reports %d dropped lines", twin.Snapshot().LogDropped)
	}
}

// TestFlowRecordsDrainedEveryEpoch: the daemon's flow simulator must not
// keep a record per background flow forever. Every barrier drops its
// records (the simulator keeps the running totals itself), so after 5,000
// epochs at 16 flows per epoch nothing is retained and the totals account
// for every flow.
// (1024 host links make 32 pods: enough core capacity that the offered
// load is sustainable and the active set stays small, as in the soak;
// testConfig's two pods are overloaded 2:1 by it.)
func TestFlowRecordsDrainedEveryEpoch(t *testing.T) {
	cfg := testConfig(1)
	cfg.Budgets.MaxLinks = 1024
	cfg.Budgets.FlowsPerEpoch = 16
	cfg.MaxLog = 16
	f, err := New(cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	for e := 0; e < 5000; e++ {
		f.Step()
	}
	if n := len(f.fsim.Records()); n != 0 {
		t.Fatalf("the flow simulator retained %d records past the barrier", n)
	}
	snap := f.Snapshot()
	if snap.FlowsCompleted < 70000 || snap.ActiveFlows > 1000 {
		t.Fatalf("%d background flows completed in 5000 epochs and %d are in flight; the load is not sustained",
			snap.FlowsCompleted, snap.ActiveFlows)
	}
	if got := snap.FlowsCompleted + snap.FlowsStalled + uint64(snap.ActiveFlows); got != f.flowsInjected {
		t.Fatalf("completed %d + stalled %d + active %d = %d flows, injected %d",
			snap.FlowsCompleted, snap.FlowsStalled, snap.ActiveFlows, got, f.flowsInjected)
	}
}

// TestFleetTelemetry checks the collector wiring end to end: per-state
// gauges, admission counters, and per-link gauges that appear at
// admission and vanish at retirement.
func TestFleetTelemetry(t *testing.T) {
	reg := telemetry.NewRegistry()
	cfg := testConfig(1)
	cfg.Budgets.DetailLinks = 1    // link 0 detailed, link 1 not
	cfg.Budgets.FlowsPerEpoch = 16 // a standing backlog on two pods: every host link carries flows
	f, err := New(cfg, reg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Create(2, nil); err != nil {
		t.Fatal(err)
	}
	stepUntil(t, f, func() bool { return stateOf(t, f, 0) == StateServing }, 10, "serving")

	var b strings.Builder
	if err := reg.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{
		`mosaic_fleetd_links{state="serving"} 2`,
		"mosaic_fleetd_admitted_total 2",
		"mosaic_fleetd_pool_rounds_total",
		`mosaic_fleetd_link_state{link="0"}`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q", want)
		}
	}
	if strings.Contains(out, `link="1"`) {
		t.Error("link 1 has per-link gauges beyond the DetailLinks budget")
	}

	if err := f.retire(0); err != nil {
		t.Fatal(err)
	}
	stepUntil(t, f, func() bool { return stateOf(t, f, 0) == StateRetired }, 20, "retired")
	b.Reset()
	if err := reg.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	if strings.Contains(b.String(), `mosaic_fleetd_link_state{link="0"}`) {
		t.Error("retired link's gauges still exposed after Detach")
	}
	if !strings.Contains(b.String(), "mosaic_fleetd_retired_total 1") {
		t.Error("retired counter not synced")
	}

	// The flow totals are two more rows of the same table. Killing every
	// channel of link 1 takes its host link down in the flow simulator,
	// so flows through that host lose their last route.
	for lanes := cfg.Design.Lanes; lanes > 0; lanes = f.link(1).lanes() { // spares step in once
		if err := f.degrade(1, lanes); err != nil {
			t.Fatal(err)
		}
		f.Step()
	}
	stepUntil(t, f, func() bool { return f.Snapshot().FlowsStalled > 0 }, 20, "a stalled flow")
	snap := f.Snapshot() // what GET /v1/fleet serves
	if snap.FlowsCompleted == 0 {
		t.Error("no background flow completed")
	}
	if got := reg.Counter("mosaic_fleetd_flows_completed_total").Value(); got != snap.FlowsCompleted {
		t.Errorf("flows_completed_total %d, /v1/fleet says %d", got, snap.FlowsCompleted)
	}
	if got := reg.Counter("mosaic_fleetd_flows_stalled_total").Value(); got != snap.FlowsStalled {
		t.Errorf("flows_stalled_total %d, /v1/fleet says %d", got, snap.FlowsStalled)
	}
}

// TestStepBudgetRotor: with StepBudget=1 the serving links advance in
// strict rotation, one per epoch, while lifecycle work still runs for
// everyone.
func TestStepBudgetRotor(t *testing.T) {
	cfg := testConfig(1)
	cfg.Budgets.StepBudget = 1
	f, err := New(cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Create(3, nil); err != nil {
		t.Fatal(err)
	}
	// Bring-up always runs, so all three reach serving together.
	stepUntil(t, f, func() bool {
		for id := 0; id < 3; id++ {
			if stateOf(t, f, id) != StateServing {
				return false
			}
		}
		return true
	}, 10, "all serving")

	base := make([]int, 3)
	for id := range base {
		info, _ := f.Inspect(id)
		base[id] = info.SF
	}
	// Three epochs = exactly one serving step each, in rotation, and a
	// step is one superframe.
	f.Step()
	f.Step()
	f.Step()
	for id := range base {
		info, _ := f.Inspect(id)
		if got := info.SF - base[id]; got != 1 {
			t.Errorf("link %d advanced %d superframes over 3 epochs, want 1", id, got)
		}
	}
}

// TestFleetdRetainedBytesPerLink pins what a serving link keeps between
// its ticks: the heap live after GC, per link, once a few hundred links
// have been brought up and the StepBudget rotor has ticked each of them.
// What a call needs only while it runs — the PHY exchange scratch, the
// tick's delivered-frame arena, the Accept buffer — is borrowed for the
// call and does not count; the link's protocol state, its channels and
// its share of the flow engine's per-link arrays do.
func TestFleetdRetainedBytesPerLink(t *testing.T) {
	const links, budget = 256, 64
	cfg := DefaultConfig()
	cfg.Workers = 2
	cfg.MaxLog = 16
	cfg.Budgets.MaxLinks = links
	cfg.Budgets.AdmitBurst = links
	cfg.Budgets.StepBudget = budget
	before := liveHeap()
	f, err := New(cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Create(links, nil); err != nil {
		t.Fatal(err)
	}
	stepUntil(t, f, func() bool { return f.Snapshot().States["serving"] == links }, 20, "all serving")
	for range links/budget + 1 {
		f.Step()
	}
	perLink := float64(liveHeap()-before) / links
	if live := f.Snapshot().LiveLinks; live != links {
		t.Fatalf("%d live links, want %d", live, links)
	}
	t.Logf("%.0f B retained per serving link", perLink)
	// Measured 19.1–19.6 KB (the two endpoints' replay rings and send
	// buffers are half of it); this bound is that plus 25 %. A link that
	// owned its exchange scratch, tick arenas and Accept buffer, with every
	// pod's flow graph sized to the whole topology, retained 56.4 KB here.
	const bound = 24_400
	if perLink > bound {
		t.Errorf("%.0f B retained per serving link, above the %d B bound", perLink, bound)
	}
}

// liveHeap is the heap in use after a collection. It collects twice: a
// sync.Pool keeps its items through one collection, and a borrowed buffer
// is not what any link holds.
func liveHeap() uint64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}
