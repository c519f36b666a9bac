package fleetd

import (
	"cmp"
	"context"
	"errors"
	"math/rand"
	"slices"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"

	"mosaic/internal/eventlog"
	"mosaic/internal/netsim"
	"mosaic/internal/par"
	"mosaic/internal/sim"
	"mosaic/internal/telemetry"
)

// epochSimLen is how much simulated time the fleet-wide flow engine
// advances per service epoch.
const epochSimLen = 10 * sim.Millisecond

// The fleet's records. A link's own records reach the fleet log at the
// barrier, copied under recLinkEvent's (epoch, link) prefix.
var (
	recShed        = eventlog.NewKind("epoch=%d shed op=%s reason=%s", eventlog.Int, eventlog.Str, eventlog.Str)
	recCreate      = eventlog.NewKind("epoch=%d op=create link=%d topo=%d lanes=%d", eventlog.Int, eventlog.Int, eventlog.Int, eventlog.Int)
	recDegrade     = eventlog.NewKind("epoch=%d op=degrade link=%d killed=%d", eventlog.Int, eventlog.Int, eventlog.Int)
	recRenegotiate = eventlog.NewKind("epoch=%d op=renegotiate link=%d", eventlog.Int, eventlog.Int)
	recRetire      = eventlog.NewKind("epoch=%d op=retire link=%d", eventlog.Int, eventlog.Int)
	recReload      = eventlog.NewKind("epoch=%d op=reload max_links=%d admit=%g/%g step_budget=%d",
		eventlog.Int, eventlog.Int, eventlog.Float, eventlog.Float, eventlog.Int)
	recLinkEvent = eventlog.NewKind("epoch=%d link=%d %s", eventlog.Int, eventlog.Int, eventlog.Rec)
	recSummary   = eventlog.NewKind("epoch=%d summary live=%d serving=%d degraded=%d draining=%d retired=%d flows=%d",
		eventlog.Int, eventlog.Int, eventlog.Int, eventlog.Int, eventlog.Int, eventlog.Int, eventlog.Int)
	recDrain = eventlog.NewKind("epoch=%d op=drain links=%d", eventlog.Int, eventlog.Int)
)

// ErrUnknownLink is returned by operations naming a link ID the fleet
// does not hold (never admitted, or retired and pruned).
var ErrUnknownLink = errors.New("fleetd: unknown link")

// Fleet is the deterministic core of the service: the managed links,
// the shared work-stealing pool, the admission gate, the fleet-wide
// flow simulator the bridges publish into, and the merged event log.
//
// All operations and Step serialize on one mutex; the pooled fan-out
// inside Step is the only concurrency, and it writes exclusively into
// per-link buffers merged at the barrier in ascending link-ID order —
// the invariant behind the worker-count-invariant event log.
type Fleet struct {
	mu   sync.Mutex
	cfg  Config
	pool *par.Pool

	links  []*managedLink // the live links, ascending ID (nextID only grows, so an admission appends)
	nextID int
	rotor  int // next link ID owed a serving step by the budget rotor

	bucket      tokenBucket
	adm         AdmissionStats // ShedScrape excepted: see scrapeSheds
	scrapeSheds atomic.Uint64  // scrapes the HTTP gate shed; no lock, no log line
	lastSheds   uint64         // admission().Sheds() at the previous barrier (overload detection)
	draining    bool

	epoch  uint64
	counts [NumStates]int // links per lifecycle state at the last barrier
	log    eventlog.Log

	topo          *netsim.Topology
	fsim          *netsim.FleetSim
	freeTopo      []int // free host-link slots in the fleet topology, ascending (lowest reused first)
	hosts         []int
	flowRNG       *rand.Rand
	flowsInjected uint64

	retired    map[int]LinkInfo
	retiredIDs []int // admission order, for pruning

	// stepLocked's scratch, kept for reuse: the links stepped this epoch
	// (ascending ID), the serving ones among them, and the pool task that
	// steps runnable[i], bound once in New.
	runnable, serving []*managedLink
	stepTask          func(i int)

	reg     *telemetry.Registry
	metrics *telemetry.Mirror[Fleet] // nil without a registry

	// snap is the lock-free health view: /healthz and load-shedding
	// decisions read it without taking the fleet lock (a scrape must
	// never wait out an epoch barrier).
	snap atomic.Pointer[Snapshot]
}

// PoolStats is the worker pool's telemetry snapshot.
type PoolStats = par.Stats

// Snapshot is the lock-free fleet summary refreshed at every barrier.
type Snapshot struct {
	Epoch       uint64         `json:"epoch"`
	States      map[string]int `json:"states"`
	LiveLinks   int            `json:"live_links"`
	MaxLinks    int            `json:"max_links"`
	Draining    bool           `json:"draining"`
	Overloaded  bool           `json:"overloaded"` // sheds occurred in the last epoch
	Admission   AdmissionStats `json:"admission"`
	Pool        PoolStats      `json:"pool"`
	ActiveFlows int            `json:"active_flows"`

	// Background flows that finished, and that lost their last route,
	// since the fleet started.
	FlowsCompleted uint64 `json:"flows_completed"`
	FlowsStalled   uint64 `json:"flows_stalled"`

	// LogDropped counts lines refused since the event log hit Config.MaxLog.
	LogDropped uint64 `json:"event_log_dropped"`

	// ScrapeBudget mirrors Budgets.ScrapePerEpoch so the HTTP scrape gate
	// can shed without taking the fleet lock.
	ScrapeBudget int64 `json:"scrape_budget"`
}

// New builds a fleet from cfg. reg may be nil (no telemetry). The fleet
// topology is sized once, from the MaxLinks budget at creation: a later
// hot-reload can shrink or grow every budget, but admissions beyond the
// built topology shed with reason "topology".
func New(cfg Config, reg *telemetry.Registry) (*Fleet, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	f := &Fleet{
		cfg:     cfg,
		pool:    par.New(cfg.Workers),
		bucket:  newTokenBucket(cfg.Budgets.AdmitPerEpoch, cfg.Budgets.AdmitBurst),
		log:     eventlog.Log{Max: cfg.MaxLog},
		retired: make(map[int]LinkInfo),
		reg:     reg,
		flowRNG: rand.New(rand.NewSource(cfg.Seed + 0x5eed)),
	}
	if f.log.Max <= 0 {
		f.log.Max = 200000
	}
	f.stepTask = func(i int) { f.runnable[i].step() }

	// Fleet topology: enough host-ToR links for MaxLinks members, in
	// pods of 4 leaves x 2 spines x 8 hosts (32 host links per pod).
	const leaves, spines, hostsPerLeaf = 4, 2, 8
	perPod := leaves * hostsPerLeaf
	pods := (cfg.Budgets.MaxLinks + perPod - 1) / perPod
	topo, err := netsim.NewFleet(pods, leaves, spines, hostsPerLeaf, 100e9)
	if err != nil {
		return nil, err
	}
	f.topo = topo
	f.fsim = netsim.NewFleetSim(topo, cfg.Workers)
	f.hosts = topo.Hosts()
	for _, l := range topo.Links { // ascending ID
		if l.Tier == netsim.TierHostToR {
			f.freeTopo = append(f.freeTopo, l.ID)
		}
	}

	if reg != nil {
		f.metrics = telemetry.NewMirror(reg, fleetRows)
	}
	f.publishSnapshot(false)
	return f, nil
}

// countShed books a shed under its reason counter and logs it.
func (f *Fleet) countShed(op string, reason ShedReason) *ShedError {
	switch reason {
	case ShedRate:
		f.adm.ShedRate++
	case ShedLinks:
		f.adm.ShedLinks++
	case ShedTopology:
		f.adm.ShedTopology++
	case ShedDraining:
		f.adm.ShedDraining++
	}
	f.log.Add(recShed).Int(int(f.epoch)).Str(op).Str(string(reason))
	return &ShedError{Reason: reason}
}

// CountScrapeShed books a scrape shed (called by the HTTP layer when
// the scrape budget gate fires). It takes no lock and logs nothing: a
// scrape is not an op, so it must neither wait out an epoch nor put a
// line in the event log that no op script can reproduce.
func (f *Fleet) CountScrapeShed() { f.scrapeSheds.Add(1) }

// admission returns the admission counters with the scrape sheds
// folded in.
func (f *Fleet) admission() AdmissionStats {
	a := f.adm
	a.ShedScrape = f.scrapeSheds.Load()
	return a
}

// DesignOrDefault returns a copy of d, or of the fleet's default design
// when d is nil — the base callers layer per-request overrides (like a
// scenario binding) onto before Create.
func (f *Fleet) DesignOrDefault(d *LinkDesign) LinkDesign {
	if d != nil {
		return *d
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.cfg.Design
}

// Create admits n links with the given design (nil = the config
// default). Admission is gated per link: the MaxLinks budget, a free
// topology slot, and one token from the bucket. It returns the IDs
// admitted; if any were shed, the first ShedError is returned alongside
// the partial result.
func (f *Fleet) Create(n int, d *LinkDesign) ([]int, error) {
	if n <= 0 {
		return nil, errors.New("fleetd: create needs count > 0")
	}
	var design LinkDesign
	if d != nil {
		design = *d
		if err := design.Validate(); err != nil {
			return nil, err
		}
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	if d == nil {
		design = f.cfg.Design // read under the lock: Reload writes it
	}
	var ids []int
	var shed error
	for i := 0; i < n; i++ {
		if f.draining {
			shed = f.countShed("create", ShedDraining)
			break
		}
		if len(f.links) >= f.cfg.Budgets.MaxLinks {
			shed = f.countShed("create", ShedLinks)
			break
		}
		if len(f.freeTopo) == 0 {
			shed = f.countShed("create", ShedTopology)
			break
		}
		if !f.bucket.take(1) {
			shed = f.countShed("create", ShedRate)
			break
		}
		id := f.nextID
		f.nextID++
		topoID := f.freeTopo[0]
		f.freeTopo = f.freeTopo[1:]
		ml := &managedLink{
			id: id, topoID: topoID, seed: linkSeed(f.cfg.Seed, id),
			design: design, state: StateAdmitted,
		}
		if f.reg != nil && (f.cfg.Budgets.DetailLinks < 0 || id < f.cfg.Budgets.DetailLinks) {
			ml.metrics = telemetry.NewMirror(f.reg, linkRows, "link", strconv.Itoa(id))
		}
		f.links = append(f.links, ml)
		f.adm.Admitted++
		f.log.Add(recCreate).Int(int(f.epoch)).Int(id).Int(topoID).Int(design.Lanes)
		ids = append(ids, id)
	}
	return ids, shed
}

// link returns the live link with the given ID, or nil.
func (f *Fleet) link(id int) *managedLink {
	if i, ok := slices.BinarySearchFunc(f.links, id, func(ml *managedLink, id int) int { return cmp.Compare(ml.id, id) }); ok {
		return f.links[i]
	}
	return nil
}

// degrade kills count channels on a link (deterministically: the
// lowest-numbered alive physicals), modeling an induced fault burst.
// Legal while the link is carrying traffic (bring-up through
// renegotiating).
func (f *Fleet) degrade(id, count int) error {
	if count <= 0 {
		return errors.New("fleetd: degrade needs count > 0")
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	ml := f.link(id)
	if ml == nil {
		return ErrUnknownLink
	}
	switch ml.state {
	case StateBringUp, StateServing, StateDegraded, StateRenegotiating:
	default:
		return &TransitionError{Link: id, From: ml.state, To: StateDegraded}
	}
	if ml.fwd == nil {
		return &TransitionError{Link: id, From: ml.state, To: StateDegraded}
	}
	killed := 0
	for _, p := range ml.fwd.Mapper().ActivePhysicals() {
		if killed == count {
			break
		}
		if !ml.fwd.ChannelDead(p) {
			ml.fwd.KillChannel(p)
			killed++
		}
	}
	f.log.Add(recDegrade).Int(int(f.epoch)).Int(id).Int(killed)
	return nil
}

// renegotiate moves a degraded link into renegotiating; the next epoch
// commits the degraded width as its new contract and republishes
// capacity into the flow simulator.
func (f *Fleet) renegotiate(id int) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	ml := f.link(id)
	if ml == nil {
		return ErrUnknownLink
	}
	if _, err := ml.transition(StateRenegotiating, recToOp); err != nil {
		return err
	}
	f.log.Add(recRenegotiate).Int(int(f.epoch)).Int(id)
	return nil
}

// retire puts a link on the drain path; it exits through
// draining -> retired over the following epochs.
func (f *Fleet) retire(id int) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	ml := f.link(id)
	if ml == nil {
		return ErrUnknownLink
	}
	if _, err := ml.transition(StateDraining, recToOp); err != nil {
		return err
	}
	f.log.Add(recRetire).Int(int(f.epoch)).Int(id)
	return nil
}

// Reload validates and swaps the admission budgets and the default link
// design without touching serving links. Seed, workers, the event-log
// cap and the built topology are immutable — a changed value there is
// rejected.
func (f *Fleet) Reload(cfg Config) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.reloadLocked(cfg)
}

// reloadLocked is Reload with the fleet lock held, so a reload-budgets
// op reads, modifies and writes f.cfg under one hold.
func (f *Fleet) reloadLocked(cfg Config) error {
	if err := cfg.Validate(); err != nil {
		return err
	}
	if cfg.Seed != f.cfg.Seed {
		return errors.New("fleetd: reload cannot change seed")
	}
	if cfg.Workers != f.cfg.Workers {
		return errors.New("fleetd: reload cannot change workers")
	}
	if cfg.MaxLog != f.cfg.MaxLog {
		return errors.New("fleetd: reload cannot change max_log")
	}
	f.cfg.Budgets = cfg.Budgets
	f.cfg.Design = cfg.Design
	f.bucket.resize(cfg.Budgets.AdmitPerEpoch, cfg.Budgets.AdmitBurst)
	f.log.Add(recReload).Int(int(f.epoch)).Int(cfg.Budgets.MaxLinks).Float(cfg.Budgets.AdmitPerEpoch).
		Float(cfg.Budgets.AdmitBurst).Int(cfg.Budgets.StepBudget)
	return nil
}

// Step advances the fleet one epoch: refill the admission bucket, fan
// the runnable links out across the pool, merge their event buffers and
// capacity publications in ascending link-ID order, retire finished
// links, drive the fleet-wide flow simulator, and refresh telemetry.
func (f *Fleet) Step() {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.stepLocked()
}

func (f *Fleet) stepLocked() {
	f.bucket.refill()

	// Scheduling: lifecycle work (admission, bring-up, renegotiation,
	// draining) always runs; serving/degraded links run MAC superframes
	// under the step budget, rotated fairly by ascending link ID.
	runnable, serving := f.runnable[:0], f.serving[:0]
	for _, ml := range f.links {
		switch ml.state {
		case StateAdmitted, StateBringUp, StateRenegotiating, StateDraining:
			runnable = append(runnable, ml)
		case StateServing, StateDegraded:
			ml.runServe = false
			serving = append(serving, ml)
			runnable = append(runnable, ml)
		}
	}
	budget := f.cfg.Budgets.StepBudget
	if budget <= 0 || budget > len(serving) {
		budget = len(serving)
	}
	if budget > 0 {
		// Start at the first serving link with ID >= rotor, wrap around.
		start := sort.Search(len(serving), func(i int) bool { return serving[i].id >= f.rotor })
		if start == len(serving) {
			start = 0
		}
		for k := 0; k < budget; k++ {
			ml := serving[(start+k)%len(serving)]
			ml.runServe = true
			f.rotor = ml.id + 1
		}
	}

	// Fan out. runnable is in ascending ID order (f.links is sorted),
	// which is also the merge order below.
	f.runnable, f.serving = runnable, serving
	f.pool.Run(len(runnable), f.stepTask)

	// Barrier: merge event buffers, publish bridge capacity fractions
	// into the fleet-wide flow simulator, and collect retirees — all in
	// ascending link-ID order.
	var retirees []*managedLink
	for _, ml := range runnable {
		f.log.AppendEach(&ml.events, recLinkEvent, int(f.epoch), ml.id)
		ml.events.Reset()
		if ml.bridge != nil {
			f.fsim.SetLinkFraction(ml.topoID, ml.bridge.Fraction()) // no-op unless it moved
		}
		if ml.state == StateRetired {
			retirees = append(retirees, ml)
		}
	}
	for _, ml := range retirees {
		f.retireLocked(ml)
	}
	f.links = slices.DeleteFunc(f.links, func(ml *managedLink) bool { return ml.state == StateRetired })
	clear(runnable) // the scratch must not keep a retired link's stack alive
	clear(serving)

	// Background traffic: seeded flow arrivals between random hosts, so
	// capacity renegotiations act on live max-min shares.
	for i := 0; i < f.cfg.Budgets.FlowsPerEpoch; i++ {
		src := f.hosts[f.flowRNG.Intn(len(f.hosts))]
		dst := f.hosts[f.flowRNG.Intn(len(f.hosts))]
		if src == dst {
			continue
		}
		size := (1 + 9*f.flowRNG.Float64()) * 1e8
		if _, err := f.fsim.Inject(src, dst, size, f.flowRNG.Uint64()); err == nil {
			f.flowsInjected++
		}
	}
	f.fsim.Step(epochSimLen)
	f.fsim.DrainRecords(nil) // the snapshot reads the simulator's totals; nothing reads a record

	// Epoch summary line: the fleet-level determinism witness.
	f.counts = [NumStates]int{}
	for _, ml := range f.links {
		f.counts[ml.state]++
	}
	f.log.Add(recSummary).Int(int(f.epoch)).Int(len(f.links)).
		Int(f.counts[StateServing]).Int(f.counts[StateDegraded]).Int(f.counts[StateDraining]).
		Int(int(f.adm.Retired)).Int(f.fsim.ActiveFlows())

	f.epoch++
	sheds := f.admission().Sheds()
	f.publishSnapshot(sheds > f.lastSheds)
	f.lastSheds = sheds

	// Telemetry last: the fleet and every detailed link as this barrier
	// leaves them.
	if f.metrics != nil {
		f.metrics.Sync(f)
		for _, ml := range f.links {
			if ml.metrics != nil {
				ml.metrics.Sync(ml)
			}
		}
	}
}

// retireLocked finalizes a retired link: record the tombstone, free the
// topology slot (restored to full width for its next tenant) and detach
// the per-link series. The barrier then drops it from f.links.
func (f *Fleet) retireLocked(ml *managedLink) {
	f.adm.Retired++
	f.retired[ml.id] = ml.info()
	f.retiredIDs = append(f.retiredIDs, ml.id)
	if len(f.retiredIDs) > 1024 {
		delete(f.retired, f.retiredIDs[0])
		f.retiredIDs = f.retiredIDs[1:]
	}
	f.fsim.SetLinkFraction(ml.topoID, 1)
	i, _ := slices.BinarySearch(f.freeTopo, ml.topoID)
	f.freeTopo = slices.Insert(f.freeTopo, i, ml.topoID)
	if ml.metrics != nil {
		ml.metrics.Detach()
	}
}

func (f *Fleet) publishSnapshot(overloaded bool) {
	states := make(map[string]int, NumStates)
	for s, n := range f.counts {
		states[State(s).String()] = n
	}
	completed, stalled := f.fsim.FlowTotals()
	f.snap.Store(&Snapshot{
		Epoch:        f.epoch,
		States:       states,
		LiveLinks:    len(f.links),
		MaxLinks:     f.cfg.Budgets.MaxLinks,
		Draining:     f.draining,
		Overloaded:   overloaded,
		Admission:    f.admission(),
		Pool:         f.pool.Stats(),
		ActiveFlows:  f.fsim.ActiveFlows(),
		ScrapeBudget: f.cfg.Budgets.ScrapePerEpoch,
		LogDropped:   f.log.Dropped(),

		FlowsCompleted: completed,
		FlowsStalled:   stalled,
	})
}

// Snapshot returns the latest lock-free fleet summary.
func (f *Fleet) Snapshot() *Snapshot { return f.snap.Load() }

// StateOf returns a link's lifecycle state (retired tombstones
// included). The second result is false for unknown IDs.
func (f *Fleet) StateOf(id int) (State, bool) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if ml := f.link(id); ml != nil {
		return ml.state, true
	}
	if _, ok := f.retired[id]; ok {
		return StateRetired, true
	}
	return 0, false
}

// Inspect returns one link's full snapshot (live or tombstoned).
func (f *Fleet) Inspect(id int) (LinkInfo, bool) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if ml := f.link(id); ml != nil {
		return ml.info(), true
	}
	info, ok := f.retired[id]
	return info, ok
}

// List returns the live links' snapshots in ascending ID order, capped
// at limit (0 = all).
func (f *Fleet) List(limit int) []LinkInfo {
	f.mu.Lock()
	defer f.mu.Unlock()
	n := len(f.links)
	if limit > 0 && limit < n {
		n = limit
	}
	out := make([]LinkInfo, 0, n)
	for _, ml := range f.links[:n] {
		out = append(out, ml.info())
	}
	return out
}

// EventLog copies the merged fleet event log.
func (f *Fleet) EventLog() []string {
	f.mu.Lock()
	defer f.mu.Unlock()
	return append([]string(nil), f.log.Lines()...)
}

// Admission returns the admission counters.
func (f *Fleet) Admission() AdmissionStats {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.admission()
}

// PoolStats returns the worker pool counters.
func (f *Fleet) PoolStats() PoolStats { return f.pool.Stats() }

// Drain performs the graceful-shutdown sequence: stop admissions, put
// every live link on the drain path, and step until the fleet is empty
// or ctx expires. It returns the number of links still live (0 on a
// clean drain).
func (f *Fleet) Drain(ctx context.Context) int {
	f.mu.Lock()
	f.draining = true
	f.log.Add(recDrain).Int(int(f.epoch)).Int(len(f.links))
	for _, ml := range f.links {
		if ml.state != StateDraining && ml.state != StateRetired {
			_, _ = ml.transition(StateDraining, recToFleetDrain)
		}
	}
	f.mu.Unlock()

	for {
		f.mu.Lock()
		live := len(f.links)
		f.mu.Unlock()
		if live == 0 {
			return 0
		}
		select {
		case <-ctx.Done():
			return live
		default:
		}
		f.Step()
	}
}
