// Quickstart: build the paper's 100-channel Mosaic prototype, check its
// link budget, and push real frames through the bit-true pipeline.
package main

import (
	"fmt"
	"log"

	"mosaic/internal/core"
	"mosaic/internal/phy"
	"mosaic/internal/units"
)

func main() {
	// 1. The paper's prototype: 100 channels x 2 Gbps over imaging fiber.
	design := core.DefaultDesign()
	design.LengthM = 10

	// 2. Analog analysis: is the link budget sound?
	res, err := design.NominalChannel()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("nominal channel at %.0f m: %v\n", design.LengthM, res)
	fmt.Printf("max reach at BER 1e-12:  %.1f m\n", design.MaxReach(1e-12))

	// 3. Power: where does the 69% saving come from?
	budget := design.PowerBudget()
	fmt.Printf("module pair power: %v (%.2f pJ/bit)\n",
		units.Power(budget.TotalW()), budget.PJPerBit())
	for _, c := range budget.SortedComponents() {
		fmt.Printf("  %-18s %v\n", c.Name, units.Power(c.PowerW))
	}

	// 4. Bit-true traffic: 100 Ethernet-sized frames through TX, 104
	// simulated noisy channels, and RX.
	link, err := design.BuildPHY()
	if err != nil {
		log.Fatal(err)
	}
	frames := phy.SeededFrames(42, 100, 1500)
	delivered, stats, err := link.Exchange(frames)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nexchanged %d frames: %d delivered, %d FEC corrections, efficiency %.3f\n",
		stats.FramesIn, len(delivered), stats.Corrections,
		float64(stats.PayloadBytes)/float64(stats.WireBytes))
	fmt.Printf("aggregate rate: %v across %d lanes\n",
		units.DataRate(link.AggregateRate()), link.Mapper().NumLanes())
}
