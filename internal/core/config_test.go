package core

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"mosaic/internal/channel"
	"mosaic/internal/phy"
)

func TestConfigRoundTrip(t *testing.T) {
	spares := 16
	cfg := DesignConfig{
		AggregateRateGbps: 800, Spares: &spares, LengthM: 30, LateralOffsetUm: 5,
		SpotDiameterUm: 20, ChannelPitchUm: 25, // the dense 800G-class packing
		Modulation: "pam4", FEC: "hamming72",
	}
	raw, err := json.Marshal(cfg)
	if err != nil {
		t.Fatal(err)
	}
	got, err := ReadDesign(bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	if got.AggregateRate != 800e9 || got.Spares != 16 ||
		got.LengthM != 30 || got.Modulation != channel.PAM4 {
		t.Fatalf("round trip mismatch: %+v", got)
	}
	if got.FEC.Name() != "hamming72" {
		t.Errorf("FEC = %s", got.FEC.Name())
	}
	if diff := got.LateralOffsetM - 5e-6; diff > 1e-12 || diff < -1e-12 {
		t.Errorf("offset = %v", got.LateralOffsetM)
	}
}

func TestConfigDefaultsApply(t *testing.T) {
	d, err := ReadDesign(strings.NewReader(`{"lengthM": 25}`))
	if err != nil {
		t.Fatal(err)
	}
	base := DefaultDesign()
	if d.LengthM != 25 {
		t.Errorf("lengthM = %v", d.LengthM)
	}
	if d.AggregateRate != base.AggregateRate || d.Spares != base.Spares {
		t.Error("unset fields did not inherit defaults")
	}
	if d.FEC.Name() != base.FEC.Name() {
		t.Error("default FEC not preserved")
	}
}

func TestConfigZeroSpares(t *testing.T) {
	// The pointer type must distinguish "spares: 0" from "unset".
	d, err := ReadDesign(strings.NewReader(`{"spares": 0}`))
	if err != nil {
		t.Fatal(err)
	}
	if d.Spares != 0 {
		t.Errorf("spares = %d, want explicit 0", d.Spares)
	}
}

func TestConfigRejects(t *testing.T) {
	cases := []string{
		`{"modulation": "qam256"}`,
		`{"fec": "turbo"}`,
		`{"lengthM": -5}`,
		`{"unknownField": 1}`,
		`not json`,
	}
	for _, c := range cases {
		if _, err := ReadDesign(strings.NewReader(c)); err == nil {
			t.Errorf("accepted %q", c)
		}
	}
}

func TestConfigPAM4AndKP4Names(t *testing.T) {
	d, err := ReadDesign(strings.NewReader(`{"modulation": "pam4", "fec": "kp4"}`))
	if err != nil {
		t.Fatal(err)
	}
	if d.Modulation != channel.PAM4 || d.FEC.Name() != phy.NewRSKP4().Name() {
		t.Errorf("parsed modulation %v, FEC %s", d.Modulation, d.FEC.Name())
	}
	none, _ := ReadDesign(strings.NewReader(`{"fec": "none"}`))
	if _, ok := none.FEC.(phy.NoFEC); !ok {
		t.Errorf("none FEC parsed as %s", none.FEC.Name())
	}
}

func TestLoadDesignFile(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "design.json")
	if err := os.WriteFile(path, []byte(`{"lengthM": 12, "seed": 9}`), 0o644); err != nil {
		t.Fatal(err)
	}
	d, err := LoadDesign(path)
	if err != nil {
		t.Fatal(err)
	}
	if d.LengthM != 12 || d.Seed != 9 {
		t.Errorf("loaded %+v", d)
	}
	if _, err := LoadDesign(filepath.Join(dir, "missing.json")); err == nil {
		t.Error("missing file accepted")
	}
}
