// Command gem-trace makes the paper's feasibility claim visible: it runs a
// tiny scenario — one data flow counted in remote memory plus one remote
// table lookup — with a tcpdump-style tap on the switch, and prints every
// frame decoded. Watch the switch emit RDMA_WRITE_ONLY / RDMA_READ_REQUEST
// / FETCH_ADD frames and the RNIC answer them, all as ordinary Ethernet.
//
// Usage: gem-trace [-n frames] [-v1]
package main

import (
	"flag"
	"fmt"
	"io"
	"log"
	"os"

	"gem"
	"gem/internal/trace"
)

func main() {
	limit := flag.Int("n", 40, "max frames to record")
	useV1 := flag.Bool("v1", false, "use the RoCEv1 (GRH) encapsulation")
	flag.Parse()
	if err := run(os.Stdout, *limit, *useV1); err != nil {
		log.Fatal(err)
	}
}

// run drives the scenario, tapping at most limit frames, and writes the
// decoded trace to w.
func run(w io.Writer, limit int, useV1 bool) error {
	tb, err := gem.New(gem.Options{Seed: 3, Hosts: 2, MemoryServers: 1})
	if err != nil {
		return err
	}
	version, encName := gem.RoCEv2, "RoCEv2 (UDP/4791)"
	if useV1 {
		version, encName = gem.RoCEv1, "RoCEv1 (GRH over Ethernet)"
	}

	// Channel 1: a state store counting the flow.
	chCnt, err := tb.Establish(0, gem.ChannelSpec{RegionSize: 1 << 16, Version: version})
	if err != nil {
		return err
	}
	counters, err := gem.NewStateStore(chCnt, gem.StateStoreConfig{Counters: 64})
	if err != nil {
		return err
	}
	tb.Dispatcher.Register(chCnt, counters)

	// Channel 2: a lookup table rewriting DSCP from remote memory.
	lcfg := gem.LookupConfig{Entries: 64, MaxPktBytes: 512}
	chTbl, err := tb.Establish(0, gem.ChannelSpec{
		RegionSize: lcfg.Entries * lcfg.EntrySize(), Version: version,
	})
	if err != nil {
		return err
	}
	table, err := gem.NewLookupTable(chTbl, lcfg)
	if err != nil {
		return err
	}
	table.DefaultOutPort = 1
	region := tb.Region(chTbl)
	for i := 0; i < lcfg.Entries; i++ {
		if err := gem.PopulateLookupEntry(region, lcfg, i, gem.SetDSCPAction(46)); err != nil {
			return err
		}
	}
	tb.Dispatcher.Register(chTbl, table)

	tb.SetPipeline(func(ctx *gem.Context) {
		if ctx.Pkt == nil || !ctx.Pkt.HasIPv4 {
			ctx.Drop()
			return
		}
		counters.UpdateFlow(gem.FlowOf(ctx.Pkt))
		table.Lookup(ctx, ctx.Frame, ctx.Pkt)
	})

	rec := trace.Attach(tb.Switch, limit)
	for i := 0; i < 3; i++ {
		tb.SendFrame(0, tb.DataFrame(0, 1, 200, 5555, 80))
		tb.Run()
	}

	fmt.Fprintf(w, "testbed: 2 hosts + 1 memory server, %s channels\n", encName)
	fmt.Fprintf(w, "pipeline: count flow in remote DRAM (FAA) + fetch action from remote table\n\n")
	rec.Dump(w)

	key := gem.FlowKey{SrcIP: tb.Hosts[0].IP, DstIP: tb.Hosts[1].IP,
		Protocol: 17, SrcPort: 5555, DstPort: 80}
	v, _ := tb.ReadRemoteCounter(chCnt, counters.CounterOffset(key.Index(64)))
	fmt.Fprintf(w, "\nremote flow counter: %d; delivered: %d; server CPU ops: %d\n",
		v, tb.Hosts[1].Received, tb.ServerCPUOps())
	return nil
}
