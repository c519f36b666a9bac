package scenario

import (
	"encoding/json"
	"testing"
)

// FuzzScenarioSpec drives the JSON spec parser/validator with arbitrary
// bytes: it must never panic, and anything it accepts must satisfy the
// schema's own contracts — re-validate cleanly, resolve both component
// lists (no surviving refs, cycles, or out-of-range parameters), stay
// inside the work bounds, and round-trip through its JSON encoding.
func FuzzScenarioSpec(f *testing.F) {
	f.Add([]byte(validSpecJSON))
	for _, e := range Library() {
		b, err := json.Marshal(e.Spec)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(b)
	}
	// Seeds for the classes the fuzzer hunts: malformed composition,
	// out-of-range rates, cyclic references.
	f.Add([]byte(`{"name":"x","epochs":1,"topology":{"pods":1,"leaves":1,"spines":1,"hosts_per_leaf":2,"link_rate_bps":1e9},"workloads":[{"ref":"a"}],"defs":{"a":{"ref":"b"},"b":{"ref":"a"}}}`))
	f.Add([]byte(`{"name":"x","epochs":1,"topology":{"pods":1,"leaves":1,"spines":1,"hosts_per_leaf":2,"link_rate_bps":1e9},"workloads":[{"kind":"diurnal","peak_load":1e308,"mean_bits":1e9}]}`))
	f.Add([]byte(`{"name":"x","epochs":1,"workloads":[{"kind":"incast","fan_in":-3,"period_epochs":0,"flow_bits":"NaN"}]}`))
	f.Add([]byte(`{`))
	f.Add([]byte(`[]`))
	f.Add([]byte(`{"name":"x","epochs":1,"topology":{"pods":1,"leaves":1,"spines":1,"hosts_per_leaf":2,"link_rate_bps":1e9},"workloads":[{"kind":"radiation","seu_rate":0.1,"seu_fraction":0.5}]}`))

	f.Fuzz(func(t *testing.T, data []byte) {
		s, err := Parse(data)
		if err != nil {
			return // rejection is the common, correct outcome
		}
		// Accepted specs must uphold the schema's promises.
		if err := s.Validate(); err != nil {
			t.Fatalf("accepted spec fails re-validation: %v", err)
		}
		ws, err := s.resolve(s.Workloads, "workload")
		if err != nil {
			t.Fatalf("accepted spec fails workload resolution: %v", err)
		}
		es, err := s.resolve(s.Environments, "environment")
		if err != nil {
			t.Fatalf("accepted spec fails environment resolution: %v", err)
		}
		for _, r := range append(ws, es...) {
			if r.comp.Ref != "" {
				t.Fatalf("resolved component still carries ref %q", r.comp.Ref)
			}
		}
		if s.Epochs > MaxEpochs || s.Topology.Links() > 50000 {
			t.Fatalf("accepted spec exceeds work bounds: epochs=%d links=%d", s.Epochs, s.Topology.Links())
		}
		b, err := json.Marshal(s)
		if err != nil {
			t.Fatalf("accepted spec fails to encode: %v", err)
		}
		if _, err := Parse(b); err != nil {
			t.Fatalf("accepted spec fails round-trip: %v", err)
		}
	})
}
