// Package fiber models the optical media of the Mosaic reproduction: the
// massively multi-core imaging fiber that carries hundreds of wide-and-slow
// channels in a single strand, and the conventional multimode (OM4) and
// single-mode fibers used by the optical baselines.
//
// Imaging fibers (fused coherent bundles, as used in endoscopes) pack
// thousands of step-index cores on a hexagonal lattice inside one cladding.
// Mosaic images an array of microLEDs onto one end; each logical channel
// illuminates a *group* of cores, so end-to-end alignment only needs to be
// accurate to a fraction of the channel pitch rather than a fraction of a
// core — the key to a cheap, field-installable connector.
package fiber

import (
	"errors"
	"fmt"
	"math"
)

// ImagingFiber describes a multi-core coherent imaging fiber.
type ImagingFiber struct {
	Name            string
	CorePitchM      float64 // centre-to-centre core spacing, metres
	CoreDiameterM   float64 // individual core diameter, metres
	BundleDiameterM float64 // usable image-circle diameter, metres
	NA              float64 // numerical aperture of individual cores

	// AttenDBPerM is the attenuation in dB/m at the reference wavelength.
	// Imaging fiber is far lossier than telecom fiber (~0.05-0.25 dB/m in
	// the visible) but Mosaic reaches are tens of metres, not kilometres.
	AttenDBPerM    float64
	RefWavelengthM float64

	// XTalkDBPerM is adjacent-core crosstalk accumulated per metre, in dB
	// (negative; e.g. -45 means each metre couples -45 dB of power into a
	// neighbouring core).
	XTalkDBPerM float64

	// ModalBWLenHzM is the modal-dispersion bandwidth-length product of a
	// single core in Hz·m (step-index multimode cores are dispersive, but
	// at 2 Gbps and 50 m the product comfortably clears).
	ModalBWLenHzM float64
}

// DefaultImagingFiber returns the paper-class imaging fiber: ~3 µm core
// pitch, thousands of cores in a ~0.5 mm bundle, blue-optimised.
func DefaultImagingFiber() ImagingFiber {
	return ImagingFiber{
		Name:            "imaging-3um",
		CorePitchM:      3.2e-6,
		CoreDiameterM:   2.4e-6,
		BundleDiameterM: 550e-6,
		NA:              0.39,
		AttenDBPerM:     0.20,
		RefWavelengthM:  430e-9,
		XTalkDBPerM:     -46,
		ModalBWLenHzM:   300e6 * 1000, // 300 MHz·km expressed in Hz·m
	}
}

// Validate reports whether the fiber parameters are meaningful.
func (f ImagingFiber) Validate() error {
	switch {
	case f.CorePitchM <= 0 || f.CoreDiameterM <= 0:
		return errors.New("fiber: core geometry must be positive")
	case f.CoreDiameterM > f.CorePitchM:
		return errors.New("fiber: cores cannot overlap (diameter > pitch)")
	case f.BundleDiameterM < f.CorePitchM:
		return errors.New("fiber: bundle smaller than one core pitch")
	case f.NA <= 0 || f.NA >= 1:
		return errors.New("fiber: NA must be in (0,1)")
	case f.AttenDBPerM < 0:
		return errors.New("fiber: attenuation cannot be negative")
	case f.XTalkDBPerM >= 0:
		return errors.New("fiber: crosstalk must be negative dB")
	}
	return nil
}

// CoreCount estimates the number of cores in the bundle: hexagonal packing
// of the image circle.
func (f ImagingFiber) CoreCount() int {
	// Hex lattice density: 2/(sqrt(3)·pitch²) cores per unit area.
	r := f.BundleDiameterM / 2
	area := math.Pi * r * r
	density := 2 / (math.Sqrt(3) * f.CorePitchM * f.CorePitchM)
	return int(area * density)
}

// AttenuationDB returns the attenuation in dB over length metres.
func (f ImagingFiber) AttenuationDB(lengthM float64) float64 {
	if lengthM <= 0 {
		return 0
	}
	return f.AttenDBPerM * lengthM
}

// ModalBandwidth returns the modal-dispersion-limited bandwidth (Hz) of a
// core over the given length.
func (f ImagingFiber) ModalBandwidth(lengthM float64) float64 {
	if lengthM <= 0 {
		return math.Inf(1)
	}
	return f.ModalBWLenHzM / lengthM
}

// AdjacentCrosstalkDB returns the accumulated adjacent-core crosstalk in dB
// after the given length (power-coupled, so it grows ~linearly with length:
// +10·log10(L) on top of the per-metre figure).
func (f ImagingFiber) AdjacentCrosstalkDB(lengthM float64) float64 {
	if lengthM <= 0 {
		return math.Inf(-1) // no crosstalk
	}
	return f.XTalkDBPerM + 10*math.Log10(lengthM)
}

// MaxChannels returns how many channel spots fit in the bundle with the
// given centre-to-centre channel pitch.
func (f ImagingFiber) MaxChannels(channelPitchM float64) int {
	if channelPitchM <= 0 {
		return 0
	}
	r := f.BundleDiameterM / 2
	area := math.Pi * r * r
	density := 2 / (math.Sqrt(3) * channelPitchM * channelPitchM)
	return int(area * density)
}

// String identifies the fiber.
func (f ImagingFiber) String() string {
	return fmt.Sprintf("%s{pitch=%.1fum, cores=%d, %.2fdB/m}",
		f.Name, f.CorePitchM*1e6, f.CoreCount(), f.AttenDBPerM)
}

// CouplingLossDB returns the LED-to-fiber coupling loss in dB for a channel
// whose spot (diameter spotM) is laterally misaligned by offsetM from its
// nominal core-group centre. The model integrates the overlap of a
// uniform-intensity disc with the core-group disc analytically (circle
// intersection), plus the lattice fill factor (core area / unit-cell area)
// and a fixed Fresnel/packing loss.
//
// At zero offset the loss is the fill-factor + Fresnel loss; at one spot
// diameter of offset the channel is dark. Because a channel spans many
// cores, tolerance is measured in tens of microns — vs sub-micron for
// single-mode optics. This is experiment E6.
func (f ImagingFiber) CouplingLossDB(spotM, offsetM float64) float64 {
	if spotM <= 0 {
		return math.Inf(1)
	}
	if offsetM < 0 {
		offsetM = -offsetM
	}
	// Fill factor of a hex lattice of circular cores.
	fill := (math.Pi / (2 * math.Sqrt(3))) *
		(f.CoreDiameterM / f.CorePitchM) * (f.CoreDiameterM / f.CorePitchM)
	if fill > 1 {
		fill = 1
	}
	// Fraction of the (uniform) spot that still lands on its own group:
	// area of intersection of two equal circles of radius R at distance d,
	// normalised by the circle area.
	frac := circleOverlapFraction(spotM/2, offsetM)
	const fresnelDB = 0.4 // facet reflections, both ends handled by caller
	if frac <= 0 || fill <= 0 {
		return math.Inf(1)
	}
	return -10*math.Log10(frac*fill) + fresnelDB
}

// circleOverlapFraction returns the area of intersection of two circles of
// equal radius r whose centres are d apart, divided by the area of one
// circle. It is 1 at d=0 and 0 for d >= 2r.
func circleOverlapFraction(r, d float64) float64 {
	if r <= 0 {
		return 0
	}
	if d <= 0 {
		return 1
	}
	if d >= 2*r {
		return 0
	}
	half := d / (2 * r)
	lens := 2*r*r*math.Acos(half) - (d/2)*math.Sqrt(4*r*r-d*d)
	return lens / (math.Pi * r * r)
}

// MisalignedNeighborLeakDB returns how much of the misaligned spot's power
// lands on the *adjacent* channel's group (dB relative to launched power),
// given the channel pitch. This converts mechanical misalignment into
// inter-channel interference for the BER model.
func (f ImagingFiber) MisalignedNeighborLeakDB(spotM, offsetM, channelPitchM float64) float64 {
	if spotM <= 0 || channelPitchM <= 0 {
		return math.Inf(-1)
	}
	if offsetM < 0 {
		offsetM = -offsetM
	}
	// Distance from the shifted spot centre to the neighbour group centre.
	d := channelPitchM - offsetM
	if d < 0 {
		d = 0
	}
	frac := circleOverlapFraction(spotM/2, d)
	if frac <= 0 {
		return math.Inf(-1)
	}
	return 10 * math.Log10(frac)
}
