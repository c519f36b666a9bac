package scenario

import (
	"encoding/json"
	"strings"
	"testing"
)

// validSpecJSON is a minimal well-formed spec used as the mutation base.
const validSpecJSON = `{
  "name": "unit-mix",
  "seed": 7,
  "epochs": 8,
  "topology": {"pods": 2, "leaves": 2, "spines": 2, "hosts_per_leaf": 2, "link_rate_bps": 100e9},
  "defs": {
    "inc": {"kind": "incast", "fan_in": 3, "period_epochs": 2, "flow_bits": 1e9}
  },
  "workloads": [
    {"ref": "inc"},
    {"kind": "storage", "writes_per_epoch": 2, "fanout": 2, "flow_bits": 5e8}
  ],
  "environments": [
    {"kind": "radiation", "seu_rate": 0.05, "seu_fraction": 0.5}
  ]
}`

func TestParseValidSpec(t *testing.T) {
	s, err := Parse([]byte(validSpecJSON))
	if err != nil {
		t.Fatal(err)
	}
	if s.Name != "unit-mix" || s.Epochs != 8 || len(s.Workloads) != 2 {
		t.Fatalf("parsed spec mangled: %+v", s)
	}
	if got := s.Topology.Hosts(); got != 8 {
		t.Fatalf("Hosts() = %d, want 8", got)
	}
	if got := s.Topology.Links(); got != 2*(4+4+2) {
		t.Fatalf("Links() = %d, want 20", got)
	}
}

// Every malformed composition the fuzzer hunts for must already be
// rejected by the table: unknown fields, bad kinds, out-of-range rates,
// unknown/cyclic/impure refs, infeasible group sizes.
func TestValidateRejects(t *testing.T) {
	cases := []struct {
		name string
		json string
		want string // substring of the error
	}{
		{
			"unknown field",
			strings.Replace(validSpecJSON, `"seed": 7`, `"seed": 7, "bogus": 1`, 1),
			"bogus",
		},
		{
			"bad name",
			strings.Replace(validSpecJSON, `"unit-mix"`, `"Bad Name!"`, 1),
			"bad name",
		},
		{
			"zero epochs",
			strings.Replace(validSpecJSON, `"epochs": 8`, `"epochs": 0`, 1),
			"epochs",
		},
		{
			"epochs over cap",
			strings.Replace(validSpecJSON, `"epochs": 8`, `"epochs": 100000`, 1),
			"epochs",
		},
		{
			"zero-host topology",
			strings.Replace(validSpecJSON, `"pods": 2`, `"pods": 0`, 1),
			"pods",
		},
		{
			"negative link rate",
			strings.Replace(validSpecJSON, `"link_rate_bps": 100e9`, `"link_rate_bps": -1`, 1),
			"link_rate_bps",
		},
		{
			"no workloads",
			strings.Replace(validSpecJSON, `{"ref": "inc"},
    {"kind": "storage", "writes_per_epoch": 2, "fanout": 2, "flow_bits": 5e8}`, ``, 1),
			"workloads",
		},
		{
			"unknown workload kind",
			strings.Replace(validSpecJSON, `"kind": "storage"`, `"kind": "mystery"`, 1),
			"not a workload kind",
		},
		{
			"environment kind as workload",
			strings.Replace(validSpecJSON,
				`{"kind": "storage", "writes_per_epoch": 2, "fanout": 2, "flow_bits": 5e8}`,
				`{"kind": "thermal", "base_k": 300, "swing_k": 50, "period_epochs": 4, "margin_db": 3}`, 1),
			"not a workload kind",
		},
		{
			"out-of-range seu rate",
			strings.Replace(validSpecJSON, `"seu_rate": 0.05`, `"seu_rate": 0.9`, 1),
			"seu_rate",
		},
		{
			"radiation without any rate",
			strings.Replace(validSpecJSON,
				`{"kind": "radiation", "seu_rate": 0.05, "seu_fraction": 0.5}`,
				`{"kind": "radiation"}`, 1),
			"radiation needs",
		},
		{
			"unknown ref",
			strings.Replace(validSpecJSON, `{"ref": "inc"}`, `{"ref": "nope"}`, 1),
			`unknown ref "nope"`,
		},
		{
			"impure ref",
			strings.Replace(validSpecJSON, `{"ref": "inc"}`, `{"ref": "inc", "fan_in": 4}`, 1),
			"must not carry other fields",
		},
		{
			"self cycle",
			strings.Replace(validSpecJSON,
				`"inc": {"kind": "incast", "fan_in": 3, "period_epochs": 2, "flow_bits": 1e9}`,
				`"inc": {"ref": "inc"}`, 1),
			"cyclic ref",
		},
		{
			"two-step cycle",
			strings.Replace(validSpecJSON,
				`"inc": {"kind": "incast", "fan_in": 3, "period_epochs": 2, "flow_bits": 1e9}`,
				`"inc": {"ref": "other"}, "other": {"ref": "inc"}`, 1),
			"cyclic ref",
		},
		{
			"infeasible fan-in",
			strings.Replace(validSpecJSON, `"fan_in": 3`, `"fan_in": 32`, 1),
			"needs",
		},
		{
			"window beyond epochs",
			strings.Replace(validSpecJSON, `"epochs": 8`, `"epochs": 8, "window_epochs": 9`, 1),
			"window_epochs",
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := Parse([]byte(tc.json))
			if err == nil {
				t.Fatalf("spec accepted:\n%s", tc.json)
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("error %q does not mention %q", err, tc.want)
			}
		})
	}
}

// A ref chain through defs must resolve to the def's concrete
// component and validate it in place.
func TestRefChainResolves(t *testing.T) {
	j := strings.Replace(validSpecJSON,
		`"inc": {"kind": "incast", "fan_in": 3, "period_epochs": 2, "flow_bits": 1e9}`,
		`"inc": {"ref": "deep"}, "deep": {"kind": "incast", "fan_in": 3, "period_epochs": 2, "flow_bits": 1e9}`, 1)
	s, err := Parse([]byte(j))
	if err != nil {
		t.Fatal(err)
	}
	ws, err := s.resolve(s.Workloads, "workload")
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, r := range ws {
		if r.comp.Kind == KindIncast && r.comp.FanIn == 3 {
			found = true
		}
	}
	if !found {
		t.Fatal("ref chain did not resolve to the concrete incast component")
	}
}

// An unreferenced def with a latent cycle must still be rejected.
func TestLatentDefCycleRejected(t *testing.T) {
	j := strings.Replace(validSpecJSON,
		`"inc": {"kind": "incast", "fan_in": 3, "period_epochs": 2, "flow_bits": 1e9}`,
		`"inc": {"kind": "incast", "fan_in": 3, "period_epochs": 2, "flow_bits": 1e9}, "a": {"ref": "b"}, "b": {"ref": "a"}`, 1)
	if _, err := Parse([]byte(j)); err == nil {
		t.Fatal("latent def cycle accepted")
	}
}

// Library specs must validate and round-trip through their own encoder.
func TestLibrarySpecsValidate(t *testing.T) {
	seen := map[string]bool{}
	for _, e := range Library() {
		if err := e.Spec.Validate(); err != nil {
			t.Errorf("%s: %v", e.ID, err)
		}
		if seen[e.ID] || seen[e.Spec.Name] {
			t.Errorf("duplicate scenario identity %s/%s", e.ID, e.Spec.Name)
		}
		seen[e.ID], seen[e.Spec.Name] = true, true

		b, err := json.Marshal(e.Spec)
		if err != nil {
			t.Fatal(err)
		}
		back, err := Parse(b)
		if err != nil {
			t.Errorf("%s: round-trip: %v", e.ID, err)
		}
		if back.Name != e.Spec.Name {
			t.Errorf("%s: round-trip changed name to %q", e.ID, back.Name)
		}
	}
}

func TestLookup(t *testing.T) {
	if _, ok := Lookup("E26"); !ok {
		t.Fatal("Lookup(E26) failed")
	}
	if e, ok := Lookup("flash-diurnal-thermal"); !ok || e.ID != "E27" {
		t.Fatalf("Lookup by spec name = %+v, %v", e, ok)
	}
	if _, ok := Lookup("nope"); ok {
		t.Fatal("Lookup accepted an unknown scenario")
	}
}
