package core

import (
	"encoding/json"
	"fmt"
	"io"
	"os"

	"mosaic/internal/channel"
	"mosaic/internal/phy"
)

// DesignConfig is the JSON-serialisable form of a Design. Device models
// keep their defaults unless overridden; the FEC is named (see
// phy.FECByName). Zero-valued fields inherit from DefaultDesign, so a
// config file only needs the fields it changes:
//
//	{"aggregateRateGbps": 800, "lengthM": 30, "spares": 16, "fec": "rslite"}
type DesignConfig struct {
	AggregateRateGbps float64 `json:"aggregateRateGbps,omitempty"`
	ChannelRateGbps   float64 `json:"channelRateGbps,omitempty"`
	Spares            *int    `json:"spares,omitempty"`
	LengthM           float64 `json:"lengthM,omitempty"`
	LateralOffsetUm   float64 `json:"lateralOffsetUm,omitempty"`
	SpotDiameterUm    float64 `json:"spotDiameterUm,omitempty"`
	ChannelPitchUm    float64 `json:"channelPitchUm,omitempty"`
	ExtinctionRatioDB float64 `json:"extinctionRatioDB,omitempty"`
	Modulation        string  `json:"modulation,omitempty"` // "nrz" | "pam4"
	FEC               string  `json:"fec,omitempty"`        // none|hamming72|rslite|kp4
	Seed              int64   `json:"seed,omitempty"`
}

// ToDesign materialises the config over DefaultDesign.
func (c DesignConfig) ToDesign() (Design, error) {
	d := DefaultDesign()
	if c.AggregateRateGbps != 0 {
		d.AggregateRate = c.AggregateRateGbps * 1e9
	}
	if c.ChannelRateGbps != 0 {
		d.ChannelRate = c.ChannelRateGbps * 1e9
	}
	if c.Spares != nil {
		d.Spares = *c.Spares
	}
	if c.LengthM != 0 {
		d.LengthM = c.LengthM
	}
	if c.LateralOffsetUm != 0 {
		d.LateralOffsetM = c.LateralOffsetUm * 1e-6
	}
	if c.SpotDiameterUm != 0 {
		d.SpotDiameterM = c.SpotDiameterUm * 1e-6
	}
	if c.ChannelPitchUm != 0 {
		d.ChannelPitchM = c.ChannelPitchUm * 1e-6
	}
	if c.ExtinctionRatioDB != 0 {
		d.ExtinctionRatioDB = c.ExtinctionRatioDB
	}
	switch c.Modulation {
	case "", "nrz", "NRZ":
		d.Modulation = channel.NRZ
	case "pam4", "PAM4":
		d.Modulation = channel.PAM4
	default:
		return Design{}, fmt.Errorf("core: unknown modulation %q", c.Modulation)
	}
	if c.FEC != "" {
		fec, err := phy.FECByName(c.FEC)
		if err != nil {
			return Design{}, err
		}
		d.FEC = fec
	}
	if c.Seed != 0 {
		d.Seed = c.Seed
	}
	if err := d.Validate(); err != nil {
		return Design{}, err
	}
	return d, nil
}

// ReadDesign parses a JSON design config from r.
func ReadDesign(r io.Reader) (Design, error) {
	var cfg DesignConfig
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&cfg); err != nil {
		return Design{}, fmt.Errorf("core: parsing design config: %w", err)
	}
	return cfg.ToDesign()
}

// LoadDesign reads a JSON design config from a file.
func LoadDesign(path string) (Design, error) {
	f, err := os.Open(path)
	if err != nil {
		return Design{}, err
	}
	defer f.Close()
	return ReadDesign(f)
}
