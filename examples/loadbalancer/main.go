// Load balancer: the other §2.2 use case ("load balancers (e.g.,
// SilkRoad)"). A stateful L4 load balancer must remember which backend
// (DIP) each connection was assigned to — millions of connections at ToR
// scale, far beyond switch SRAM. Here the per-connection table lives in
// remote DRAM: the switch resolves a connection's DIP through the lookup
// primitive (local SRAM cache in front), rewrites the destination, and
// forwards — consistently for the connection's lifetime, with no CPU on
// the slow path.
package main

import (
	"fmt"
	"io"
	"log"
	"os"

	"gem"
	"gem/internal/flowgen"
	"gem/internal/netsim"
	"gem/internal/rnic"
	"gem/internal/switchsim"
	"gem/internal/wire"
)

const (
	backends    = 4
	connections = 2000
	pktsPerConn = 5
)

// The virtual IP clients address, and the LB's router MAC.
var (
	vip    = wire.IP4{10, 99, 0, 1}
	vipMAC = wire.MACFromUint64(0x02_AA_00_000001)
)

func main() {
	if err := run(os.Stdout); err != nil {
		log.Fatal(err)
	}
}

func run(w io.Writer) error {
	// Host 0 = client; hosts 1..backends = servers; one memory server.
	tb, err := gem.New(gem.Options{
		Seed: 13, Hosts: backends + 1, MemoryServers: 1,
		NIC: rnic.Config{MTU: 4096},
	})
	if err != nil {
		return err
	}
	cfg := gem.LookupConfig{
		Entries:      1 << 16, // 64k connection buckets in remote DRAM
		MaxPktBytes:  512,
		CacheEntries: 2048, // small hot cache in SRAM
	}
	ch, err := tb.Establish(0, gem.ChannelSpec{RegionSize: cfg.Entries * cfg.EntrySize()})
	if err != nil {
		return err
	}
	lb, err := gem.NewLookupTable(ch, cfg)
	if err != nil {
		return err
	}

	// Control plane: assign each connection bucket a backend DIP.
	region := tb.Region(ch)
	for i := 0; i < cfg.Entries; i++ {
		dip := tb.Hosts[1+i%backends].IP
		if err := gem.PopulateLookupEntry(region, cfg, i, gem.SetDstIPAction(dip)); err != nil {
			return err
		}
	}

	// After the action rewrites dst to the DIP, route to that backend.
	portOfIP := map[wire.IP4]int{}
	for i := 1; i <= backends; i++ {
		portOfIP[tb.Hosts[i].IP] = tb.SwitchPortOfHost(i)
	}
	lb.Apply = func(ctx *switchsim.Context, frame []byte, action gem.LookupAction) {
		if !lb.ApplyActionOnly(frame, action) {
			ctx.Drop()
			return
		}
		var p wire.Packet
		if err := p.DecodeFromBytes(frame); err != nil {
			ctx.Drop()
			return
		}
		if out, ok := portOfIP[p.IP.Dst]; ok {
			ctx.Emit(out, frame)
			return
		}
		ctx.Drop()
	}
	tb.Dispatcher.Register(ch, lb)
	tb.SetPipeline(func(ctx *gem.Context) {
		if ctx.Pkt == nil || !ctx.Pkt.HasIPv4 {
			ctx.Drop()
			return
		}
		if ctx.Pkt.IP.Dst == vip {
			lb.Lookup(ctx, ctx.Frame, ctx.Pkt)
			return
		}
		ctx.Drop()
	})

	// Which backend served each connection, by UDP source port.
	served := map[uint16]wire.IP4{}
	inconsistent := 0
	perBackend := map[wire.IP4]int{}
	for i := 1; i <= backends; i++ {
		b := tb.Hosts[i]
		b.Handler = func(_ *netsim.Port, frame []byte) {
			var p wire.Packet
			if err := p.DecodeFromBytes(frame); err != nil || !p.HasUDP {
				return
			}
			perBackend[p.IP.Dst]++
			if prev, ok := served[p.UDP.SrcPort]; ok && prev != p.IP.Dst {
				inconsistent++
			}
			served[p.UDP.SrcPort] = p.IP.Dst
		}
	}

	// Traffic: each connection sends several packets, interleaved.
	for round := 0; round < pktsPerConn; round++ {
		for c := 0; c < connections; c++ {
			sp, _ := flowgen.FlowID(c)
			frame := wire.BuildDataFrame(tb.Hosts[0].MAC, vipMAC,
				tb.Hosts[0].IP, vip, sp, 80, 256, nil)
			tb.SendFrame(0, frame)
			if c%512 == 511 {
				tb.Run()
			}
		}
		tb.Run()
	}

	total := 0
	for _, n := range perBackend {
		total += n
	}
	fmt.Fprintf(w, "connections: %d, packets: %d (delivered %d)\n",
		connections, connections*pktsPerConn, total)
	fmt.Fprintf(w, "per-connection consistency violations: %d\n", inconsistent)
	fmt.Fprintln(w, "backend distribution:")
	for i := 1; i <= backends; i++ {
		ip := tb.Hosts[i].IP
		fmt.Fprintf(w, "  %v: %5d packets (%.1f%%)\n", ip, perBackend[ip],
			float64(perBackend[ip])/float64(total)*100)
	}
	fmt.Fprintf(w, "connection table: %d buckets in remote DRAM (%.1f MB), SRAM cache %d entries\n",
		cfg.Entries, float64(cfg.Entries*cfg.EntrySize())/(1<<20), cfg.CacheEntries)
	fmt.Fprintf(w, "cache hit rate: %.1f%%, remote lookups: %d, server CPU ops: %d\n",
		lb.Cache().HitRate()*100, lb.Stats.RemoteLookups, tb.ServerCPUOps())
	return nil
}
