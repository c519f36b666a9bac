// Streaming: continuous time-domain operation of a Mosaic link on the
// discrete-event engine. A traffic source enqueues frames, a channel dies
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
	eng := sim.NewEngine(11)
	stream, err := phy.NewStream(link, eng)
	if err != nil {
		log.Fatal(err)
	}

	// A steady source: 2000 x 1500B frames ≈ 24 Mbit, a few hundred µs at
	// 200 Gbps.
	frames := phy.SeededFrames(4, 2000, 1500)
	stream.Enqueue(frames...)

	// Channel 33's transmitter dies 40 µs in; ops spares it 40 µs later.
	eng.After(40*sim.Microsecond, func() {
		fmt.Printf("[%v] channel 33 transmitter died\n", eng.Now())
		link.KillChannel(33)
	})
	eng.After(80*sim.Microsecond, func() {
		h := link.Monitor().Health(33)
		ev := link.FailChannel(33)
		fmt.Printf("[%v] monitor: channel 33 is %v; %v\n", eng.Now(), h.State, ev)
	})

	eng.Run()

	fmt.Printf("\n%-12s %-10s %-10s %-10s\n", "time", "rate", "delivered", "lost")
	for _, s := range stream.History {
		fmt.Printf("%-12v %-10v %-10d %-10d\n",
			s.At, units.DataRate(s.Rate), s.Delivered, s.Lost)
	}
	fmt.Printf("\ntotals: %d in, %d out, %d lost; measured goodput %v over %v\n",
		stream.FramesIn, stream.FramesOut, stream.FramesLost,
		units.DataRate(stream.GoodputBps()), eng.Now())
}
