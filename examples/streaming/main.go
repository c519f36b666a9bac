// Streaming: continuous time-domain operation of a Mosaic link as a
// stepped loop. A source's frames go out a superframe per Exchange, each
// advancing the clock by the time it occupies the link; a channel dies
// mid-stream, the monitor catches it, sparing repairs it — and the
// goodput/loss timeline shows the whole episode with real timestamps.
package main

import (
	"fmt"
	"log"

	"mosaic/internal/core"
	"mosaic/internal/phy"
	"mosaic/internal/sim"
	"mosaic/internal/units"
)

func main() {
	design := core.DefaultDesign()
	design.Variation.DeadProb = 0
	link, err := design.BuildPHY()
	if err != nil {
		log.Fatal(err)
	}
	// A steady source: 2000 x 1500B frames ≈ 24 Mbit, a few hundred µs at
	// 200 Gbps, 44 frames (64 KiB, ~3.3 µs) to the superframe. Channel 33's
	// transmitter dies 12 superframes (~40 µs) in; ops spares it 12 later.
	const frameLen, perSF = 1500, 44
	queue := phy.SeededFrames(4, 2000, frameLen)
	in, out := len(queue), 0
	var now sim.Time
	fmt.Printf("%-12s %-10s %-10s %-10s\n", "time", "rate", "delivered", "lost")
	for sf := 0; len(queue) > 0; sf++ {
		switch sf {
		case 12:
			fmt.Printf("[%v] channel 33 transmitter died\n", now)
			link.KillChannel(33)
		case 24:
			h := link.Monitor().Health(33)
			fmt.Printf("[%v] monitor: channel 33 is %v; %v\n", now, h.State, link.FailChannel(33))
		}
		rate := link.AggregateRate()
		_, st, err := link.Exchange(queue[:min(perSF, len(queue))])
		if err != nil {
			log.Fatal(err)
		}
		queue = queue[st.FramesIn:]
		out += st.FramesDelivered
		fmt.Printf("%-12v %-10v %-10d %-10d\n",
			now, units.DataRate(rate), st.FramesDelivered, st.FramesIn-st.FramesDelivered)
		// The link is busy until the superframe has been serialized.
		now += sim.Time(float64(st.FramesIn*frameLen*8) / (rate * link.GoodputFraction()))
	}
	fmt.Printf("\ntotals: %d in, %d out, %d lost; measured goodput %v over %v\n",
		in, out, in-out, units.DataRate(float64(out*frameLen*8)/float64(now)), now)
}
