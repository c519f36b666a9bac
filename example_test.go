package mosaic_test

// The runnable quick start: each example builds a link from
// core.DefaultDesign and prints what it saw, and `go test` holds that
// printout to its Output block. Run them with
//
//	go test -run Example -v .
//
// The paper's tables come from the experiment registry instead
// (`go run ./cmd/mosaicbench`): these show what no table shows — one
// live exchange, channel sparing as it happens, and a link stepped on
// its own clock.

import (
	"fmt"
	"log"

	"mosaic/internal/core"
	"mosaic/internal/phy"
	"mosaic/internal/sim"
	"mosaic/internal/units"
)

// Build the paper's 100-channel Mosaic prototype, check its link budget,
// and push real frames through the bit-true pipeline.
func Example_quickstart() {
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

	// Output:
	// nominal channel at 10 m: rx=-19.2dBm bw=1.01GHz eye=0.92 Q=30.86 BER=1.82e-209 margin=9.1dB
	// max reach at BER 1e-12:  55.8 m
	// module pair power: 1.555W (7.77 pJ/bit)
	//   gearbox            760mW
	//   led-driver-array   457.6mW
	//   tia-array          187.2mW
	//   clocking           100mW
	//   module-misc        50mW
	//
	// exchanged 100 frames: 100 delivered, 0 FEC corrections, efficiency 0.778
	// aggregate rate: 200Gbps across 100 lanes
}

// Watch a Mosaic link absorb transmitter deaths. Channels are killed one
// by one while traffic flows; the monitor detects each death from frame
// loss, the mapper remaps the lane onto a spare, and — once the spares run
// out — the link degrades its rate instead of going dark. Compare with a
// laser link, where the first death is an outage.
func Example_failover() {
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

	// Output:
	// healthy                      lanes=100 rate=200Gbps  delivered=50/50 unitsLost=0
	// channel 17 died              lanes=100 rate=200Gbps  delivered=46/50 unitsLost=4
	//   monitor: channel 17 is failed (lost 4 frames)
	//   sparing: channel 17 (lane 17) failed, remapped to spare 100 (spares left: 1)
	// after repair #1              lanes=100 rate=200Gbps  delivered=50/50 unitsLost=0
	//
	// channel 42 died              lanes=100 rate=200Gbps  delivered=45/50 unitsLost=4
	//   monitor: channel 42 is failed (lost 4 frames)
	//   sparing: channel 42 (lane 42) failed, remapped to spare 101 (spares left: 0)
	// after repair #2              lanes=100 rate=200Gbps  delivered=50/50 unitsLost=0
	//
	// channel 63 died              lanes=100 rate=200Gbps  delivered=46/50 unitsLost=3
	//   monitor: channel 63 is failed (lost 3 frames)
	//   sparing: channel 63 (lane 63) failed, no spares: degraded to fewer lanes (spares left: 0)
	// after repair #3              lanes=99  rate=198Gbps  delivered=50/50 unitsLost=0
	//
	// channel 88 died              lanes=99  rate=198Gbps  delivered=47/50 unitsLost=3
	//   monitor: channel 88 is failed (lost 3 frames)
	//   sparing: channel 88 (lane 87) failed, no spares: degraded to fewer lanes (spares left: 0)
	// after repair #4              lanes=98  rate=196Gbps  delivered=50/50 unitsLost=0
	//
	// summary: two deaths absorbed by spares (full rate),
	// two more degraded the lane count — the link never went down.
}

// Continuous time-domain operation of a Mosaic link as a stepped loop. A
// source's frames go out a superframe per Exchange, each advancing the
// clock by the time it occupies the link; a channel dies mid-stream, the
// monitor catches it, sparing repairs it — and the goodput/loss timeline
// shows the whole episode with real timestamps.
func Example_streaming() {
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
	fmt.Printf("%-12s %-10s %-10s %s\n", "time", "rate", "delivered", "lost")
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
		fmt.Printf("%-12v %-10v %-10d %d\n",
			now, units.DataRate(rate), st.FramesDelivered, st.FramesIn-st.FramesDelivered)
		// The link is busy until the superframe has been serialized.
		now += sim.Time(float64(st.FramesIn*frameLen*8) / (rate * link.GoodputFraction()))
	}
	fmt.Printf("\ntotals: %d in, %d out, %d lost; measured goodput %v over %v\n",
		in, out, in-out, units.DataRate(float64(out*frameLen*8)/float64(now)), now)

	// Output:
	// time         rate       delivered  lost
	// 0s           200Gbps    44         0
	// 3.34889us    200Gbps    44         0
	// 6.69778us    200Gbps    44         0
	// 10.0467us    200Gbps    44         0
	// 13.3956us    200Gbps    44         0
	// 16.7444us    200Gbps    44         0
	// 20.0933us    200Gbps    44         0
	// 23.4422us    200Gbps    44         0
	// 26.7911us    200Gbps    44         0
	// 30.14us      200Gbps    44         0
	// 33.4889us    200Gbps    44         0
	// 36.8378us    200Gbps    44         0
	// [40.1867us] channel 33 transmitter died
	// 40.1867us    200Gbps    40         4
	// 43.5356us    200Gbps    40         4
	// 46.8844us    200Gbps    40         4
	// 50.2333us    200Gbps    40         4
	// 53.5822us    200Gbps    40         4
	// 56.9311us    200Gbps    40         4
	// 60.28us      200Gbps    40         4
	// 63.6289us    200Gbps    40         4
	// 66.9778us    200Gbps    40         4
	// 70.3267us    200Gbps    40         4
	// 73.6756us    200Gbps    40         4
	// 77.0244us    200Gbps    40         4
	// [80.3733us] monitor: channel 33 is failed; channel 33 (lane 33) failed, remapped to spare 100
	// 80.3733us    200Gbps    44         0
	// 83.7222us    200Gbps    44         0
	// 87.0711us    200Gbps    44         0
	// 90.42us      200Gbps    44         0
	// 93.7689us    200Gbps    44         0
	// 97.1178us    200Gbps    44         0
	// 100.467us    200Gbps    44         0
	// 103.816us    200Gbps    44         0
	// 107.164us    200Gbps    44         0
	// 110.513us    200Gbps    44         0
	// 113.862us    200Gbps    44         0
	// 117.211us    200Gbps    44         0
	// 120.56us     200Gbps    44         0
	// 123.909us    200Gbps    44         0
	// 127.258us    200Gbps    44         0
	// 130.607us    200Gbps    44         0
	// 133.956us    200Gbps    44         0
	// 137.304us    200Gbps    44         0
	// 140.653us    200Gbps    44         0
	// 144.002us    200Gbps    44         0
	// 147.351us    200Gbps    44         0
	// 150.7us      200Gbps    20         0
	//
	// totals: 2000 in, 1952 out, 48 lost; measured goodput 153.9Gbps over 152.222us
}
