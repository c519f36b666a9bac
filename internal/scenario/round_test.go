package scenario

import (
	"math/rand"
	"reflect"
	"slices"
	"testing"
)

// permHead must be rand.Perm(n)[:k] and leave the generator exactly where
// Perm leaves it, or every stream drawn after it (and every digest built
// on those streams) would move. The head it overwrites starts dirty, as
// a runner's reused scratch does.
func TestPermHeadMatchesPerm(t *testing.T) {
	bounds := newBounds(4096)
	for seed := int64(0); seed < 200; seed++ {
		for _, n := range []int{1, 2, 5, 17, 960, 1000, 1023, 1024, 4095, 4096} {
			if seed >= 40 && n > 1000 {
				continue // the long permutations on fewer seeds
			}
			for _, k := range []int{1, 2, 4, n} {
				if k > n {
					continue
				}
				ref, got := rand.New(rand.NewSource(seed)), newGoSource(seed)
				want := ref.Perm(n)[:k]
				head := make([]int, k)
				for i := range head {
					head[i] = -1 - i
				}
				if permHead(got, bounds[:n], head); !slices.Equal(head, want) {
					t.Fatalf("seed %d n %d k %d: head %v, want %v", seed, n, k, head, want)
				}
				if a, b := got.Int63(), ref.Int63(); a != b {
					t.Fatalf("seed %d n %d k %d: next draw %d after permHead, %d after Perm", seed, n, k, a, b)
				}
			}
		}
	}
}

// mixedSpec runs all five workload kinds under all three environments:
// E26's collectives and radiation beside E27's diurnal, storage, thermal
// and contamination, on E26's fleet.
func mixedSpec(epochs int) Spec {
	lib := Library()
	s := lib[0].Spec
	s.Name, s.Epochs = "mixed", epochs
	s.Workloads = append(slices.Clone(s.Workloads), lib[1].Spec.Workloads...)
	s.Environments = append(slices.Clone(s.Environments), lib[1].Spec.Environments...)
	return s
}

// TestRunDeterministicAcrossWorkers pins the epoch round: the barrier
// task and the next epoch's draw run side by side, so the worker count
// must not reach the log, the windows or the fault counts, and the draws
// must not depend on the engine at all.
func TestRunDeterministicAcrossWorkers(t *testing.T) {
	spec := mixedSpec(30)
	kinds := map[string]bool{}
	for _, c := range append(slices.Clone(spec.Workloads), spec.Environments...) {
		if c.Ref != "" {
			c = spec.Defs[c.Ref]
		}
		kinds[c.Kind] = true
	}
	if len(kinds) != 8 {
		t.Fatalf("spec covers %d component kinds, want all five workloads and three environments", len(kinds))
	}

	t.Run("workers", func(t *testing.T) {
		ref, err := Run(spec, Options{Workers: 1})
		if err != nil {
			t.Fatal(err)
		}
		if ref.Flows == 0 || ref.Done == 0 {
			t.Fatalf("reference run injected %d and completed %d flows", ref.Flows, ref.Done)
		}
		for _, w := range []int{2, 3, 8} {
			got, err := Run(spec, Options{Workers: w})
			if err != nil {
				t.Fatal(err)
			}
			if got.LogSHA != ref.LogSHA {
				t.Fatalf("workers=%d: sha %s vs %s\n%s", w, got.LogSHA, ref.LogSHA, firstLogDiff(ref.EventLog, got.EventLog))
			}
			if !reflect.DeepEqual(got.Windows, ref.Windows) || !reflect.DeepEqual(got.Faults, ref.Faults) {
				t.Fatalf("workers=%d: windows or fault counts differ from workers=1", w)
			}
		}
	})

	t.Run("draws", func(t *testing.T) {
		runners := func() []workloadRunner {
			ws, err := spec.resolve(spec.Workloads, "workload")
			if err != nil {
				t.Fatal(err)
			}
			var out []workloadRunner
			for _, r := range ws {
				out = append(out, newWorkloadRunner(r, spec.Topology, spec.Epochs))
			}
			return out
		}
		hosts := spec.Topology.Hosts()
		// One set draws epoch-major, as Run does; the other runner-major,
		// each runner through every epoch before the next starts.
		a, b := runners(), runners()
		perEpoch := make([][]arrival, spec.Epochs)
		total := 0
		for e := range perEpoch {
			for _, w := range a {
				perEpoch[e] = w.draw(e, hosts, perEpoch[e])
			}
			total += len(perEpoch[e])
		}
		byRunner := make([][]arrival, spec.Epochs)
		for _, w := range b {
			for e := range byRunner {
				byRunner[e] = w.draw(e, hosts, byRunner[e])
			}
		}
		if !reflect.DeepEqual(perEpoch, byRunner) {
			t.Fatal("a runner's draws depend on when the other runners draw")
		}
		res, err := Run(spec, Options{Workers: 2})
		if err != nil {
			t.Fatal(err)
		}
		if res.Flows+res.Unroutable != total {
			t.Fatalf("run offered %d+%d flows, the runners drew %d", res.Flows, res.Unroutable, total)
		}
	})
}
