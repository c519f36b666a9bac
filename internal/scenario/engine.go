package scenario

import (
	"fmt"
	"math"
	"runtime"

	"mosaic/internal/eventlog"
	"mosaic/internal/netsim"
	"mosaic/internal/par"
)

// Options tunes one scenario run.
type Options struct {
	// Workers is the parallelism of the fleet engine and of each epoch's
	// two-task barrier round (<=0 = GOMAXPROCS, 1 = sequential). The event
	// log is byte-identical at any value.
	Workers int
	// CheckInvariants asserts netsim flow conservation and max-min at
	// every epoch's resolved point; a violation fails the run.
	CheckInvariants bool
}

// FaultCount pairs an environment's actually-injected event count with
// its closed-form expectation.
type FaultCount struct {
	Name  string  `json:"name"`
	Count int     `json:"count"`
	Mean  float64 `json:"mean"`
	Sigma float64 `json:"sigma"`
}

// WindowStat aggregates a run window for table rows.
type WindowStat struct {
	Start, End int // epoch range [Start, End)
	Flows      int // flows injected in the window
	Unroutable int
	EnvEvents  int
	Done       int     // flows completed in the window
	BitsDone   float64 // bits delivered by those completions
	ActiveEnd  int     // in-flight flows at the window's closing barrier
	CrossEnd   int     // cross-pod among them
}

// Result is one scenario run's full outcome. EventLog (and its LogSHA)
// is the determinism witness: identical for any worker count and any
// spec array ordering.
type Result struct {
	Name       string
	Epochs     int
	Hosts      int
	Links      int
	Flows      int
	Unroutable int
	Done       int
	Stalled    int
	BitsDone   float64
	Faults     []FaultCount // canonical environment order
	Windows    []WindowStat
	EventLog   []string
	LogSHA     string
}

// The engine's records: one header, then one line per epoch.
var (
	recHeader = eventlog.NewKind("scenario=%s seed=%d epochs=%d hosts=%d links=%d workloads=%d environments=%d",
		eventlog.Str, eventlog.Int, eventlog.Int, eventlog.Int, eventlog.Int, eventlog.Int, eventlog.Int)
	recEpoch = eventlog.NewKind("epoch=%d flows=%d unroutable=%d env_events=%d active=%d cross=%d",
		eventlog.Int, eventlog.Int, eventlog.Int, eventlog.Int, eventlog.Int, eventlog.Int)
)

// Run executes a validated spec over a fresh fleet: each epoch the
// environments fold their capacity fractions into a per-link
// multiplier vector (published through SetLinkFraction), the workloads'
// arrivals are injected in canonical component order, and the sharded
// engine steps one epoch. An epoch's barrier is one two-task pool round:
// task 0 applies the environments and injects the batch drawn the epoch
// before, task 1 draws the next epoch's batch. Determinism contract: the
// barrier task and fs.Step are each sequential, and every RNG stream is
// content-seeded and read by one task only (workload draws never read the
// engine), so the event log is byte-identical at any worker count.
func Run(spec Spec, opts Options) (*Result, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	ws, err := spec.resolve(spec.Workloads, "workload")
	if err != nil {
		return nil, err
	}
	es, err := spec.resolve(spec.Environments, "environment")
	if err != nil {
		return nil, err
	}

	topo, err := netsim.NewFleet(spec.Topology.Pods, spec.Topology.Leaves,
		spec.Topology.Spines, spec.Topology.HostsPerLeaf, spec.Topology.LinkRateBps)
	if err != nil {
		return nil, err
	}
	fs := netsim.NewFleetSim(topo, opts.Workers)
	hosts := topo.Hosts()

	var invariantErr error
	var invariantEpoch int
	if opts.CheckInvariants {
		epoch := 0
		fs.SetResolvedHook(func() {
			if invariantErr == nil {
				if err := fs.CheckInvariants(); err != nil {
					invariantErr, invariantEpoch = err, epoch
				}
			}
			epoch++
		})
	}

	workloads := make([]workloadRunner, 0, len(ws))
	for _, r := range ws {
		workloads = append(workloads, newWorkloadRunner(r, spec.Topology, spec.Epochs))
	}
	envs := make([]envRunner, 0, len(es))
	for _, r := range es {
		envs = append(envs, newEnvRunner(r, spec.Topology, spec.Epochs))
	}

	res := &Result{
		Name:   spec.Name,
		Epochs: spec.Epochs,
		Hosts:  len(hosts),
		Links:  len(topo.Links),
	}
	var log eventlog.Log
	log.Add(recHeader).Str(spec.Name).Int(int(spec.Seed)).Int(spec.Epochs).Int(len(hosts)).Int(len(topo.Links)).Int(len(workloads)).Int(len(envs))

	winLen := spec.windowEpochs()
	win := WindowStat{Start: 0}
	// account books one drained record: a stall, or a completion into the
	// window of its epoch. A flow finishing at barrier time t completed
	// during epoch ceil(t)-1, whose window may still be open.
	account := func(r netsim.FlowRecord) {
		if r.Stalled {
			res.Stalled++
			return
		}
		res.Done++
		res.BitsDone += r.SizeBits
		w := &win
		if i := max(int(math.Ceil(float64(r.End)))-1, 0) / winLen; i < len(res.Windows) {
			w = &res.Windows[i]
		}
		w.Done++
		w.BitsDone += r.SizeBits
	}
	closeWindow := func(endEpoch int) {
		win.End = endEpoch
		win.ActiveEnd = fs.ActiveFlows()
		win.CrossEnd = fs.CrossFlows()
		res.Windows = append(res.Windows, win)
		win = WindowStat{Start: endEpoch}
	}

	draw := func(e int, out []arrival) []arrival {
		out = out[:0]
		for _, w := range workloads {
			out = w.draw(e, len(hosts), out)
		}
		return out
	}
	mult := make([]float64, len(topo.Links))
	eventCounts := make([]int, len(envs))
	// round is epoch e's pool round: task 0 is the barrier (environments,
	// capacity writes, then the batch drawn last epoch), task 1 draws the
	// next epoch's batch into the other buffer.
	var e, flows, unroutable, envEvents int
	batch, next := draw(0, nil), []arrival(nil)
	round := func(task int) {
		if task == 1 {
			if e+1 < spec.Epochs {
				next = draw(e+1, next)
			}
			return
		}
		for i := range mult {
			mult[i] = 1
		}
		envEvents = 0
		for i, env := range envs {
			n := env.apply(e, mult, &log)
			eventCounts[i] += n
			envEvents += n
		}
		for l := range mult {
			fs.SetLinkFraction(l, mult[l])
		}
		flows, unroutable = 0, 0
		for _, a := range batch {
			if _, err := fs.Inject(hosts[a.src], hosts[a.dst], a.bits, a.hash); err != nil {
				unroutable++ // every link on the only viable route is dead
			} else {
				flows++
			}
		}
	}
	workers := opts.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	pool := par.New(min(workers, 2)) // a round has two tasks
	for e = 0; e < spec.Epochs; e++ {
		pool.Wake()
		pool.Run(2, round)
		// The last epoch's completions and this barrier's stalls, in the
		// order one Records call at the end would give: nothing outlives
		// the epoch that produced it.
		fs.DrainRecords(account)
		fs.Step(1)
		log.Add(recEpoch).Int(e).Int(flows).Int(unroutable).Int(envEvents).Int(fs.ActiveFlows()).Int(fs.CrossFlows())

		res.Flows += flows
		res.Unroutable += unroutable
		win.Flows += flows
		win.Unroutable += unroutable
		win.EnvEvents += envEvents
		if (e+1)%winLen == 0 || e == spec.Epochs-1 {
			closeWindow(e + 1)
		}
		batch, next = next, batch
	}
	if invariantErr != nil {
		return nil, fmt.Errorf("scenario %s: invariant violated at epoch %d: %w",
			spec.Name, invariantEpoch, invariantErr)
	}

	fs.DrainRecords(account) // the last epoch's completions
	for i, env := range envs {
		exp := env.expect()
		res.Faults = append(res.Faults, FaultCount{
			Name: env.name(), Count: eventCounts[i], Mean: exp.Mean, Sigma: exp.Sigma,
		})
	}

	res.EventLog = append(log.Lines(), fs.EventLog()...)
	res.LogSHA = eventlog.Digest(res.EventLog)
	return res, nil
}
