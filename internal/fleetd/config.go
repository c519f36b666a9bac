package fleetd

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"

	"mosaic/internal/phy"
	"mosaic/internal/scenario"
)

// LinkDesign is the per-link build recipe: the PHY width, the MAC
// framing, the traffic pattern each serving tick carries, and the fault
// pressure the seeded schedule applies. The fleet default is
// deliberately narrower than the paper's 100-channel prototype — the
// service trades per-link width for link count, which is the
// wide-and-slow argument applied at fleet scale.
type LinkDesign struct {
	Lanes   int    `json:"lanes"`    // active data lanes
	Spares  int    `json:"spares"`   // spare channels
	FEC     string `json:"fec"`      // none|hamming72|rslite|kp4
	UnitLen int    `json:"unit_len"` // stripe unit bytes (multiple of 9)

	PacketLen    int `json:"packet_len"`     // client packet bytes per MAC send
	PacketsPerSF int `json:"packets_per_sf"` // client packets queued per superframe

	BringUpSF int `json:"bringup_sf"` // superframes of bring-up before serving
	DrainSF   int `json:"drain_sf"`   // max superframes spent draining

	// Hazard is the per-superframe per-channel kill probability of the
	// link's generated fault schedule; Horizon is the schedule length in
	// superframes (a fresh seeded schedule is generated each horizon).
	Hazard  float64 `json:"hazard"`
	Horizon int     `json:"horizon"`

	// Scenario names a registered scenario (internal/scenario, by
	// experiment ID "E26" or spec name "ai-collective-seu"). When set,
	// the link's fault schedule is the scenario's witness schedule —
	// its environment models mapped down to per-channel faults —
	// instead of the hazard-generated random kills. A fresh seeded
	// witness is generated each horizon round, like RandomKills.
	Scenario string `json:"scenario,omitempty"`
}

// DefaultLinkDesign returns the fleet-scale link recipe: 8+2 lanes of
// the same bit-true pipeline, light traffic, gentle wear.
func DefaultLinkDesign() LinkDesign {
	return LinkDesign{
		Lanes: 8, Spares: 2, FEC: "rslite", UnitLen: 243,
		PacketLen: 243, PacketsPerSF: 2,
		BringUpSF: 2, DrainSF: 8,
		Hazard: 0.0002, Horizon: 512,
	}
}

// Validate checks the design against the request limits and fills the
// FEC lookup.
func (d *LinkDesign) Validate() error {
	if d.Lanes <= 0 {
		return errors.New("fleetd: design needs at least one lane")
	}
	if d.Spares < 0 {
		return errors.New("fleetd: design spares must be >= 0")
	}
	if d.Lanes > maxDesignChannels || d.Spares > maxDesignChannels-d.Lanes {
		return fmt.Errorf("fleetd: design lanes+spares exceeds the limit of %d", maxDesignChannels)
	}
	if d.UnitLen <= 0 || d.UnitLen > maxDesignUnitLen || d.UnitLen%9 != 0 {
		return fmt.Errorf("fleetd: design unit_len %d must be a positive multiple of 9 up to %d", d.UnitLen, maxDesignUnitLen)
	}
	if (d.Lanes+d.Spares)*(d.UnitLen+10) > maxDesignFrameBodies {
		return fmt.Errorf("fleetd: design (lanes+spares) × (unit_len+10) exceeds the limit of %d bytes", maxDesignFrameBodies)
	}
	if _, err := phy.FECByName(d.FEC); err != nil {
		return err
	}
	if d.PacketLen <= 0 || d.PacketsPerSF <= 0 {
		return errors.New("fleetd: design needs packet_len > 0 and packets_per_sf > 0")
	}
	if d.PacketLen > maxDesignPacketLen {
		return fmt.Errorf("fleetd: design packet_len %d exceeds the MAC payload limit of %d", d.PacketLen, maxDesignPacketLen)
	}
	if d.PacketsPerSF > maxDesignSFBytes/d.PacketLen {
		return fmt.Errorf("fleetd: design packets_per_sf × packet_len exceeds the limit of %d bytes", maxDesignSFBytes)
	}
	if d.BringUpSF <= 0 || d.DrainSF <= 0 {
		return errors.New("fleetd: design needs bringup_sf, drain_sf > 0")
	}
	if d.Hazard < 0 || d.Hazard > 1 {
		return errors.New("fleetd: design hazard must be in [0,1]")
	}
	if d.Horizon <= 0 || d.Horizon > maxDesignHorizon {
		return fmt.Errorf("fleetd: design horizon %d must be in [1, %d]", d.Horizon, maxDesignHorizon)
	}
	if d.Scenario != "" {
		if _, ok := scenario.Lookup(d.Scenario); !ok {
			return fmt.Errorf("fleetd: unknown scenario %q (see mosaicbench -list)", d.Scenario)
		}
	}
	return nil
}

// Budgets are the admission-control knobs — the half of the config the
// service expects to hot-reload under load.
type Budgets struct {
	// MaxLinks caps live (non-retired) links; admissions beyond it shed.
	MaxLinks int `json:"max_links"`

	// AdmitPerEpoch and AdmitBurst parameterize the token bucket gating
	// link admissions: the bucket refills AdmitPerEpoch tokens each epoch
	// and holds at most AdmitBurst. One admission costs one token.
	AdmitPerEpoch float64 `json:"admit_per_epoch"`
	AdmitBurst    float64 `json:"admit_burst"`

	// StepBudget caps how many serving/degraded links run full MAC
	// superframes in one epoch (bring-up, renegotiation, and draining
	// always run). The scheduler rotates fairly, so every serving link is
	// stepped every ceil(serving/StepBudget) epochs. 0 = all links.
	StepBudget int `json:"step_budget"`

	// ScrapePerEpoch caps /metrics (+ /metrics.json) scrapes per epoch;
	// beyond it scrapes shed with 429 until the next epoch. 0 = unlimited.
	ScrapePerEpoch int64 `json:"scrape_per_epoch"`

	// DetailLinks attaches a per-link labeled collector to links with ID
	// below this bound (gauges stay registered until the link retires).
	// Keeps exposition size under control at fleet scale. -1 = all links.
	DetailLinks int `json:"detail_links"`

	// FlowsPerEpoch background flows are injected into the fleet-wide
	// flow simulator each epoch, so bridge capacity publications act on
	// live traffic. 0 disables injection; at most maxFlowsPerEpoch.
	FlowsPerEpoch int `json:"flows_per_epoch"`
}

// Config parameterizes a Fleet. The zero value is not runnable; start
// from DefaultConfig.
type Config struct {
	Seed    int64 `json:"seed"`
	Workers int   `json:"workers"` // pool workers; 0 = GOMAXPROCS

	Budgets Budgets    `json:"budgets"`
	Design  LinkDesign `json:"design"` // default design for admissions

	// MaxLog caps the retained fleet event log (0 = 200000 lines).
	MaxLog int `json:"max_log"`
}

// DefaultConfig returns a fleet sized for thousands of concurrent links.
func DefaultConfig() Config {
	return Config{
		Seed:    1,
		Workers: 0,
		Budgets: Budgets{
			MaxLinks:       4096,
			AdmitPerEpoch:  256,
			AdmitBurst:     2048,
			StepBudget:     128,
			ScrapePerEpoch: 1024,
			DetailLinks:    32,
			FlowsPerEpoch:  16,
		},
		Design: DefaultLinkDesign(),
	}
}

// Validate checks the whole config (budgets and default design).
func (c *Config) Validate() error {
	if c.Budgets.MaxLinks <= 0 {
		return errors.New("fleetd: budgets.max_links must be > 0")
	}
	if c.Budgets.AdmitPerEpoch <= 0 || c.Budgets.AdmitBurst <= 0 {
		return errors.New("fleetd: budgets.admit_per_epoch and admit_burst must be > 0")
	}
	if c.Budgets.StepBudget < 0 || c.Budgets.ScrapePerEpoch < 0 ||
		c.Budgets.FlowsPerEpoch < 0 {
		return errors.New("fleetd: budgets must be >= 0")
	}
	if c.Budgets.FlowsPerEpoch > maxFlowsPerEpoch {
		return fmt.Errorf("fleetd: budgets.flows_per_epoch %d exceeds the limit of %d", c.Budgets.FlowsPerEpoch, maxFlowsPerEpoch)
	}
	if c.Budgets.DetailLinks < -1 {
		return errors.New("fleetd: budgets.detail_links must be >= -1")
	}
	if c.Workers < 0 {
		return errors.New("fleetd: workers must be >= 0")
	}
	if c.MaxLog < 0 {
		return errors.New("fleetd: max_log must be >= 0")
	}
	return c.Design.Validate()
}

// LoadConfig reads and validates a JSON config file. Missing fields keep
// the defaults, so a file holding only {"budgets":{"max_links":100}}
// adjusts one budget.
func LoadConfig(path string) (Config, error) {
	f, err := os.Open(path)
	if err != nil {
		return Config{}, err
	}
	defer f.Close()
	return DecodeConfig(f)
}

// DecodeConfig decodes JSON from r on top of DefaultConfig and validates.
func DecodeConfig(r io.Reader) (Config, error) {
	cfg := DefaultConfig()
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&cfg); err != nil {
		return Config{}, fmt.Errorf("fleetd: config: %w", err)
	}
	if err := cfg.Validate(); err != nil {
		return Config{}, err
	}
	return cfg, nil
}
