// Failover: watch a Mosaic link absorb transmitter deaths. Channels are
// killed one by one while traffic flows; the monitor detects each death
// from frame loss, the mapper remaps the lane onto a spare, and — once the
// spares run out — the link degrades its rate instead of going dark.
// Compare with a laser link, where the first death is an outage.
package main

import (
	"fmt"
	"log"

	"mosaic/internal/core"
	"mosaic/internal/phy"
	"mosaic/internal/units"
)

func main() {
	design := core.DefaultDesign()
	design.Variation.DeadProb = 0 // start with a perfect array
	design.Spares = 2
	link, err := design.BuildPHY()
	if err != nil {
		log.Fatal(err)
	}

	frames := phy.SeededFrames(7, 50, 1500)

	exchange := func(tag string) {
		_, st, err := link.Exchange(frames)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%-28s lanes=%-3d rate=%-8v delivered=%d/%d unitsLost=%d\n",
			tag, link.Mapper().NumLanes(), units.DataRate(link.AggregateRate()),
			st.FramesDelivered, st.FramesIn, st.UnitsLost)
	}

	exchange("healthy")

	victims := []int{17, 42, 63, 88}
	for i, v := range victims {
		// The transmitter dies mid-operation...
		link.KillChannel(v)
		exchange(fmt.Sprintf("channel %d died", v))

		// ...the monitor has now seen the loss; check its verdict...
		h := link.Monitor().Health(v)
		fmt.Printf("  monitor: channel %d is %v (lost %d frames)\n", v, h.State, h.FramesLost)

		// ...and the sparing logic repairs the lane map.
		ev := link.FailChannel(v)
		fmt.Printf("  sparing: %v (spares left: %d)\n", ev, link.Mapper().SparesLeft())
		exchange(fmt.Sprintf("after repair #%d", i+1))
		fmt.Println()
	}

	fmt.Println("summary: two deaths absorbed by spares (full rate),")
	fmt.Println("two more degraded the lane count — the link never went down.")
}
