// Quickstart: a two-host rack with one memory server. The switch counts
// every forwarded packet in a per-flow counter that lives in the memory
// server's DRAM, updated purely from the data plane with RDMA
// Fetch-and-Add — the server's CPU does nothing after setup.
package main

import (
	"fmt"
	"io"
	"log"
	"os"

	"gem"
)

func main() {
	if err := run(os.Stdout); err != nil {
		log.Fatal(err)
	}
}

func run(w io.Writer) error {
	// 1. Build the testbed: 2 hosts + 1 memory server behind one ToR.
	tb, err := gem.New(gem.Options{Seed: 42, Hosts: 2, MemoryServers: 1})
	if err != nil {
		return err
	}

	// 2. Control plane (runs once): reserve 1 MB of server DRAM, register
	// it with the RNIC, create the queue pair, install the channel into
	// switch registers.
	ch, err := tb.Establish(0, gem.ChannelSpec{RegionSize: 1 << 20})
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "channel up: qpn=%#x rkey=%#x base=%#x size=%d\n",
		ch.PeerQPN, ch.RKey, ch.Base, ch.Size)

	// 3. Attach the state-store primitive: 4096 remote counters.
	counters, err := gem.NewStateStore(ch, gem.StateStoreConfig{Counters: 4096})
	if err != nil {
		return err
	}
	tb.Dispatcher.Register(ch, counters)

	// 4. The "P4 program": count, then forward by destination.
	tb.SetPipeline(func(ctx *gem.Context) {
		if ctx.Pkt == nil || !ctx.Pkt.HasIPv4 {
			ctx.Drop()
			return
		}
		counters.UpdateFlow(gem.FlowOf(ctx.Pkt))
		switch ctx.Pkt.Eth.Dst {
		case tb.Hosts[0].MAC:
			ctx.Emit(0, ctx.Frame)
		case tb.Hosts[1].MAC:
			ctx.Emit(1, ctx.Frame)
		default:
			ctx.Drop()
		}
	})

	// 5. Send 10,000 packets of one flow from host 0 to host 1 (draining
	// the virtual clock periodically so the host NIC queue stays shallow).
	const packets = 10_000
	for i := 0; i < packets; i++ {
		tb.SendFrame(0, tb.DataFrame(0, 1, 512, 7777, 80))
		if i%1000 == 999 {
			tb.Run()
		}
	}
	tb.Run()

	// 6. Read the flow's counter straight out of server DRAM.
	key := gem.FlowKey{
		SrcIP: tb.Hosts[0].IP, DstIP: tb.Hosts[1].IP,
		Protocol: 17, SrcPort: 7777, DstPort: 80,
	}
	v, err := tb.ReadRemoteCounter(ch, counters.CounterOffset(key.Index(4096)))
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "delivered: %d/%d packets\n", tb.Hosts[1].Received, packets)
	fmt.Fprintf(w, "remote counter for the flow: %d (exact: %v)\n", v, v == packets)
	fmt.Fprintf(w, "memory server CPU operations after setup: %d\n", tb.ServerCPUOps())
	fmt.Fprintf(w, "virtual time elapsed: %v\n", tb.Now())
	return nil
}
