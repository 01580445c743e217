package core

import (
	"bytes"
	"strings"
	"testing"

	"gem/internal/netsim"
	"gem/internal/rnic"
	"gem/internal/switchsim"
	"gem/internal/wire"
)

// lookupBed: host0 sends, host1 receives, every packet's action comes from
// the remote table.
func lookupBed(t *testing.T, cfg LookupConfig) (*bed, *LookupTable) {
	t.Helper()
	return lookupBedMTU(t, 4096, cfg)
}

// lookupBedMTU is lookupBed with the memory NIC at the given path MTU.
func lookupBedMTU(t *testing.T, mtu int, cfg LookupConfig) (*bed, *LookupTable) {
	t.Helper()
	b := newBed(t, 2, switchsim.Config{}, rnic.Config{MTU: mtu})
	cfg.fillDefaults()
	size := cfg.Entries * cfg.EntrySize()
	ch := b.establish(t, size, rnic.PSNTolerant, false)
	lt, err := NewLookupTable(ch, cfg)
	if err != nil {
		t.Fatal(err)
	}
	lt.DefaultOutPort = 1
	b.disp.Register(ch, lt)
	b.sw.Pipeline = switchsim.PipelineFunc(func(ctx *switchsim.Context) {
		if b.disp.Dispatch(ctx) {
			return
		}
		if ctx.Pkt == nil || !ctx.Pkt.HasIPv4 {
			ctx.Drop()
			return
		}
		lt.Lookup(ctx, ctx.Frame, ctx.Pkt)
	})
	return b, lt
}

// populateAll fills every remote entry with the same action.
func populateAll(t *testing.T, b *bed, lt *LookupTable, action LookupAction) {
	t.Helper()
	region := b.memNIC.LookupRegion(lt.chans[0].RKey)
	for i := 0; i < lt.cfg.Entries; i++ {
		if err := PopulateLookupEntry(region, lt.cfg, i, action); err != nil {
			t.Fatal(err)
		}
	}
}

func recvDSCP(b *bed, host int) *[]uint8 {
	vals := &[]uint8{}
	b.hosts[host].Handler = func(_ *netsim.Port, frame []byte) {
		var p wire.Packet
		if err := p.DecodeFromBytes(frame); err == nil && p.HasIPv4 {
			*vals = append(*vals, p.IP.DSCP)
		}
	}
	return vals
}

func TestLookupDepositAppliesRemoteAction(t *testing.T) {
	b, lt := lookupBed(t, LookupConfig{Entries: 64})
	populateAll(t, b, lt, SetDSCPAction(46))
	got := recvDSCP(b, 1)
	b.net.Ports(b.hosts[0])[0].Send(dataFrame(b.hosts[0], b.hosts[1], 256, 1234))
	b.net.Engine.Run()
	if len(*got) != 1 || (*got)[0] != 46 {
		t.Fatalf("receiver DSCPs = %v, want [46]", *got)
	}
	if lt.Stats.RemoteLookups != 1 || lt.Stats.Deposits != 1 || lt.Stats.Applied != 1 {
		t.Fatalf("stats = %+v", lt.Stats)
	}
	// The deposited packet must be bit-identical after the bounce, except
	// for the rewritten field — verified by it parsing and forwarding.
	if b.memHost.CPUOps != 0 {
		t.Fatal("table server CPU touched")
	}
}

func TestLookupDepositBouncesPacketThroughRemoteEntry(t *testing.T) {
	b, lt := lookupBed(t, LookupConfig{Entries: 8})
	populateAll(t, b, lt, SetDSCPAction(10))
	frame := dataFrame(b.hosts[0], b.hosts[1], 300, 777)
	// Copy-on-retain: the sent frame belongs to the fabric and is recycled
	// (and poisoned under -race); index the region from the copy.
	master := append([]byte(nil), frame...)
	b.net.Ports(b.hosts[0])[0].Send(frame)
	b.net.Engine.Run()
	// The original packet must actually be present in server DRAM.
	region := b.memNIC.LookupRegion(lt.chans[0].RKey)
	var p wire.Packet
	if err := p.DecodeFromBytes(master); err != nil {
		t.Fatal(err)
	}
	idx := wire.FlowOf(&p).Index(lt.cfg.Entries)
	base := idx * lt.cfg.EntrySize()
	plen := int(region.Bytes()[base+8])<<8 | int(region.Bytes()[base+9])
	if plen != 300 {
		t.Fatalf("deposited length = %d, want 300", plen)
	}
}

// TestLookupRefusedDepositNotReplayed: when the deposit WRITE is refused,
// the entry still holds the previous packet, so fetching it would deliver
// that packet a second time in place of the new one. A bandwidth cap that
// admits the small READ request but not the WRITE refuses B's deposit: B is
// dropped and counted, A arrives once, and the miss credit comes back.
func TestLookupRefusedDepositNotReplayed(t *testing.T) {
	b, lt := lookupBed(t, LookupConfig{Entries: 1, MaxOutstandingMisses: 4})
	populateAll(t, b, lt, SetDSCPAction(10))
	var tags []string
	b.hosts[1].Handler = func(_ *netsim.Port, frame []byte) {
		var p wire.Packet
		if err := p.DecodeFromBytes(frame); err == nil && p.HasIPv4 {
			tags = append(tags, string(p.Payload[:1]))
		}
	}
	send := func(size int, tag string) {
		b.net.Ports(b.hosts[0])[0].Send(wire.BuildDataFrame(b.hosts[0].MAC, b.hosts[1].MAC,
			b.hosts[0].IP, b.hosts[1].IP, 1000, 9999, size, []byte(tag)))
		b.net.Engine.Run()
	}
	send(300, "A")
	// A 200-byte burst at a near-zero rate passes one READ request (under
	// 100 bytes on the wire) and refuses the ~500-byte WRITE carrying B.
	lt.chans[0].SetBandwidthCap(1, 200)
	send(400, "B")
	if len(tags) != 1 || tags[0] != "A" {
		t.Fatalf("receiver got payloads %q, want [A]", tags)
	}
	if lt.Stats.Deposits != 1 || lt.Stats.DepositFails != 1 || lt.Stats.Applied != 1 {
		t.Fatalf("stats = %+v, want 1 deposit, 1 refused, 1 applied", lt.Stats)
	}
	if cr := lt.ShardCredits(0).Stats; cr.Released != cr.Acquired {
		t.Fatalf("miss credits unbalanced at quiescence: %+v", cr)
	}
}

func TestLookupCachePopulatedAndHit(t *testing.T) {
	b, lt := lookupBed(t, LookupConfig{Entries: 64, CacheEntries: 128})
	populateAll(t, b, lt, SetDSCPAction(12))
	got := recvDSCP(b, 1)
	// Same flow three times, spaced past the remote round trip: the
	// first misses to remote memory; the rest hit the installed cache
	// entry without touching the memory link.
	for i := 0; i < 3; i++ {
		b.net.Ports(b.hosts[0])[0].Send(dataFrame(b.hosts[0], b.hosts[1], 200, 555))
		b.net.Engine.Run()
	}
	if len(*got) != 3 {
		t.Fatalf("delivered %d/3", len(*got))
	}
	for _, d := range *got {
		if d != 12 {
			t.Fatalf("DSCPs = %v", *got)
		}
	}
	if lt.Stats.CacheHits != 2 || lt.Stats.RemoteLookups != 1 {
		t.Fatalf("hits/remote = %d/%d, want 2/1 (stats %+v)",
			lt.Stats.CacheHits, lt.Stats.RemoteLookups, lt.Stats)
	}
}

func TestLookupDistinctFlowsDistinctActions(t *testing.T) {
	b, lt := lookupBed(t, LookupConfig{Entries: 1024})
	region := b.memNIC.LookupRegion(lt.chans[0].RKey)
	// Flow A → DSCP 1, flow B → DSCP 2 (indexes may collide with 1024
	// entries only with tiny probability for two flows; recompute).
	fa := dataFrame(b.hosts[0], b.hosts[1], 200, 1000)
	fb := dataFrame(b.hosts[0], b.hosts[1], 200, 2000)
	var pa, pb wire.Packet
	if err := pa.DecodeFromBytes(fa); err != nil {
		t.Fatal(err)
	}
	if err := pb.DecodeFromBytes(fb); err != nil {
		t.Fatal(err)
	}
	ia := wire.FlowOf(&pa).Index(lt.cfg.Entries)
	ib := wire.FlowOf(&pb).Index(lt.cfg.Entries)
	if ia == ib {
		t.Skip("hash collision between the two test flows")
	}
	if err := PopulateLookupEntry(region, lt.cfg, ia, SetDSCPAction(1)); err != nil {
		t.Fatal(err)
	}
	if err := PopulateLookupEntry(region, lt.cfg, ib, SetDSCPAction(2)); err != nil {
		t.Fatal(err)
	}
	got := recvDSCP(b, 1)
	b.net.Ports(b.hosts[0])[0].Send(fa)
	b.net.Ports(b.hosts[0])[0].Send(fb)
	b.net.Engine.Run()
	if len(*got) != 2 || (*got)[0] != 1 || (*got)[1] != 2 {
		t.Fatalf("DSCPs = %v, want [1 2]", *got)
	}
}

func TestLookupDstIPRewrite(t *testing.T) {
	// The §2.2 bare-metal case: virtual IP → physical IP translation.
	b, lt := lookupBed(t, LookupConfig{Entries: 16})
	phys := wire.IP4{10, 9, 9, 9}
	populateAll(t, b, lt, SetDstIPAction(phys))
	var gotDst wire.IP4
	b.hosts[1].Handler = func(_ *netsim.Port, frame []byte) {
		var p wire.Packet
		if err := p.DecodeFromBytes(frame); err == nil && p.HasIPv4 {
			gotDst = p.IP.Dst
		}
	}
	b.net.Ports(b.hosts[0])[0].Send(dataFrame(b.hosts[0], b.hosts[1], 128, 42))
	b.net.Engine.Run()
	if gotDst != phys {
		t.Fatalf("dst = %v, want %v", gotDst, phys)
	}
}

func TestLookupDropAction(t *testing.T) {
	b, lt := lookupBed(t, LookupConfig{Entries: 16})
	populateAll(t, b, lt, LookupAction{ActDrop})
	b.net.Ports(b.hosts[0])[0].Send(dataFrame(b.hosts[0], b.hosts[1], 128, 42))
	b.net.Engine.Run()
	if b.hosts[1].Received != 0 {
		t.Fatal("dropped packet delivered")
	}
	if lt.Stats.Applied != 1 {
		t.Fatalf("stats = %+v", lt.Stats)
	}
}

func TestLookupRecirculateMode(t *testing.T) {
	b, lt := lookupBed(t, LookupConfig{Entries: 16, Mode: LookupRecirculate, MaxRecircPasses: 20})
	populateAll(t, b, lt, SetDSCPAction(30))
	got := recvDSCP(b, 1)
	b.net.Ports(b.hosts[0])[0].Send(dataFrame(b.hosts[0], b.hosts[1], 1000, 5))
	b.net.Engine.Run()
	if len(*got) != 1 || (*got)[0] != 30 {
		t.Fatalf("DSCPs = %v, want [30]", *got)
	}
	if lt.Stats.Deposits != 0 {
		t.Fatal("recirculate mode deposited the packet")
	}
	if lt.Stats.RecircPasses == 0 {
		t.Fatal("no recirculation passes recorded")
	}
	// Bandwidth saving: only an 8-byte READ went to the memory link, not
	// the 1000-byte packet.
	sent := b.sw.Port(b.memPort).TxMeter.Bytes
	if sent > 200 {
		t.Fatalf("memory link carried %d bytes; recirculate mode should stay tiny", sent)
	}
}

func TestLookupRecirculateExpires(t *testing.T) {
	// Unreachable memory server (pipeline drops responses before Dispatch,
	// which then only hands recirculated frames back to the table): packet
	// must expire after MaxRecircPasses, not loop forever.
	b := newBed(t, 2, switchsim.Config{}, rnic.Config{})
	cfg := LookupConfig{Entries: 16, Mode: LookupRecirculate, MaxRecircPasses: 3}
	cfg.fillDefaults()
	ch := b.establish(t, cfg.Entries*cfg.EntrySize(), rnic.PSNTolerant, false)
	lt, err := NewLookupTable(ch, cfg)
	if err != nil {
		t.Fatal(err)
	}
	lt.DefaultOutPort = 1
	b.disp.Register(ch, lt)
	b.sw.Pipeline = switchsim.PipelineFunc(func(ctx *switchsim.Context) {
		if ctx.Pkt != nil && ctx.Pkt.IsRoCE {
			ctx.Drop() // responses vanish
			return
		}
		if b.disp.Dispatch(ctx) {
			return
		}
		if ctx.Pkt != nil && ctx.Pkt.HasIPv4 {
			lt.Lookup(ctx, ctx.Frame, ctx.Pkt)
			return
		}
		ctx.Drop()
	})
	// The frame recirculates pass after pass and must be returned to the
	// pool exactly once when the packet expires: the checked-out balance
	// must come back to its pre-send level. A leak shows as +1, a double
	// release as -1.
	before := wire.DefaultPool.Stats().Balance()
	b.net.Ports(b.hosts[0])[0].Send(dataFrame(b.hosts[0], b.hosts[1], 128, 9))
	b.net.Engine.Run()
	if lt.Stats.RecircExpired != 1 {
		t.Fatalf("expired = %d, want 1 (stats %+v)", lt.Stats.RecircExpired, lt.Stats)
	}
	if lt.Stats.RecircPasses != int64(cfg.MaxRecircPasses) {
		t.Fatalf("passes = %d, want %d", lt.Stats.RecircPasses, cfg.MaxRecircPasses)
	}
	if b.hosts[1].Received != 0 {
		t.Fatal("expired packet was still delivered")
	}
	if got := wire.DefaultPool.Stats().Balance(); got != before {
		t.Fatalf("parked frame not released exactly once on expiry: balance drifted %+d", got-before)
	}
}

func TestLookupConfigValidation(t *testing.T) {
	b := newBed(t, 2, switchsim.Config{}, rnic.Config{})
	ch := b.establish(t, 1024, rnic.PSNTolerant, false)
	if _, err := NewLookupTable(ch, LookupConfig{Entries: 0}); err == nil {
		t.Fatal("zero entries accepted")
	}
	if _, err := NewLookupTable(ch, LookupConfig{Entries: 1000, MaxPktBytes: 16}); err == nil {
		t.Fatal("table larger than region accepted")
	}
	// Recirculation metadata bridges the table index and the pass count in
	// fixed fields; a value that overflows its field would alias another.
	for _, cfg := range []LookupConfig{
		{Entries: 1<<recircIdxBits + 1, Mode: LookupRecirculate},
		{Entries: 4, Mode: LookupRecirculate, MaxRecircPasses: 1 << recircPassBits},
	} {
		_, err := NewLookupTable(ch, cfg)
		if err == nil || !strings.Contains(err.Error(), "recirculation metadata") {
			t.Fatalf("%d entries, %d passes: err = %v, want the metadata bound", cfg.Entries, cfg.MaxRecircPasses, err)
		}
	}
	if _, err := NewLookupTable(ch, LookupConfig{Entries: 4, MaxPktBytes: 16, Mode: LookupRecirculate, MaxRecircPasses: 1<<recircPassBits - 1}); err != nil {
		t.Fatalf("largest pass bound refused: %v", err)
	}
}

// TestLookupRefusesEntriesTheMTUWouldSplit: a deposit entry larger than the
// channel MTU would come back as several response packets, which the data
// plane cannot join without buffering the packet. At the NIC's default
// 1024 B MTU the largest packet slot is 1014 B; recirculation reads only the
// 8-byte action and takes any slot.
func TestLookupRefusesEntriesTheMTUWouldSplit(t *testing.T) {
	b := newBed(t, 2, switchsim.Config{}, rnic.Config{MTU: 1024})
	ch := b.establish(t, 4*(lookupEntryHeader+1536), rnic.PSNTolerant, false)
	_, err := NewLookupTable(ch, LookupConfig{Entries: 4, MaxPktBytes: 1536})
	if err == nil {
		t.Fatal("1546-byte deposit entry accepted at a 1024-byte MTU")
	}
	for _, want := range []string{"1546", "1024", "1014"} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("error %q does not name %s", err, want)
		}
	}
	if _, err := NewLookupTable(ch, LookupConfig{Entries: 4, MaxPktBytes: 1014}); err != nil {
		t.Fatalf("1024-byte deposit entry refused at a 1024-byte MTU: %v", err)
	}
	if _, err := NewLookupTable(ch, LookupConfig{Entries: 4, MaxPktBytes: 1536, Mode: LookupRecirculate}); err != nil {
		t.Fatalf("recirculation refused for a slot it never reads: %v", err)
	}
}

// TestLookupReadSizedToDeposit: the fetch READs back the action, the length
// prefix and the deposited packet, never the slot's slack. At the NIC's
// default MTU each answer is one packet, and every frame size up to the slot
// comes back byte for byte.
func TestLookupReadSizedToDeposit(t *testing.T) {
	b, lt := lookupBedMTU(t, 1024, LookupConfig{Entries: 8, MaxPktBytes: 1014})
	populateAll(t, b, lt, LookupAction{ActNop})
	var got []byte
	b.hosts[1].Handler = func(_ *netsim.Port, frame []byte) {
		got = append(got[:0], frame...)
	}
	hdr := wire.EthernetLen + wire.IPv4Len + wire.UDPLen
	for i, size := range []int{64, 300, 1000, 1014} {
		payload := make([]byte, size-hdr)
		for j := range payload {
			payload[j] = byte(size + j)
		}
		sent := wire.BuildDataFrame(b.hosts[0].MAC, b.hosts[1].MAC, b.hosts[0].IP, b.hosts[1].IP,
			uint16(100+i), 9999, size, payload)
		want := append([]byte(nil), sent...)
		read := b.memNIC.Stats.ReadBytes
		got = got[:0]
		b.net.Ports(b.hosts[0])[0].Send(sent)
		b.net.Engine.Run()
		if !bytes.Equal(got, want) {
			t.Fatalf("%d B frame: delivered %d bytes that differ from the sent frame", size, len(got))
		}
		if n := b.memNIC.Stats.ReadBytes - read; n != int64(lookupEntryHeader+size) {
			t.Fatalf("%d B frame: READ fetched %d bytes, want %d", size, n, lookupEntryHeader+size)
		}
	}
	if lt.Stats.BadEntries != 0 || lt.Stats.Applied != 4 {
		t.Fatalf("stats = %+v, want 4 applied and no bad entry", lt.Stats)
	}
}

// TestLookupContinuationPacketNotParsed: a deposit-mode table answers every
// lookup in one READ response packet, so a Middle packet carries no entry,
// even when its bytes look like one. It is counted and dropped, never
// applied.
func TestLookupContinuationPacketNotParsed(t *testing.T) {
	b, lt := lookupBedMTU(t, 1024, LookupConfig{Entries: 8, MaxPktBytes: 1014})
	inner := dataFrame(b.hosts[0], b.hosts[1], 256, 42)
	entry := make([]byte, lookupEntryHeader+len(inner))
	action := SetDSCPAction(46)
	copy(entry, action[:])
	entry[8], entry[9] = byte(len(inner)>>8), byte(len(inner))
	copy(entry[lookupEntryHeader:], inner)
	wire.DefaultPool.Put(inner)
	ch := lt.chans[0]
	p := wire.RoCEParams{
		SrcMAC: ch.PeerMAC, DstMAC: SwitchMAC,
		SrcIP: ch.PeerIP, DstIP: SwitchIP,
		UDPSrcPort: 0xC000, DestQP: ch.ID, PSN: 0,
	}
	frame := wire.BuildReadResponseInto(wire.DefaultPool, &p, wire.OpReadResponseMiddle, 0, entry)
	b.sw.Receive(b.sw.Port(b.memPort), frame)
	b.net.Engine.Run()
	if b.hosts[1].Received != 0 || lt.Stats.Applied != 0 {
		t.Fatalf("a Middle response packet was applied: %d delivered, stats %+v", b.hosts[1].Received, lt.Stats)
	}
	if lt.Stats.BadEntries != 1 {
		t.Fatalf("stats = %+v, want 1 bad entry", lt.Stats)
	}
}

// TestLookupRecirculatedFramesBypassPipeline: every recirculation pass goes
// back through the switch pipeline, but the Dispatcher hands it to the table
// before the application's own logic runs, so per-packet work there (here a
// counter bump, as a state-store update would be) happens once per packet.
func TestLookupRecirculatedFramesBypassPipeline(t *testing.T) {
	b, lt := lookupBed(t, LookupConfig{Entries: 16, Mode: LookupRecirculate, MaxRecircPasses: 20})
	populateAll(t, b, lt, SetDSCPAction(30))
	counted := 0
	b.sw.Pipeline = switchsim.PipelineFunc(func(ctx *switchsim.Context) {
		if b.disp.Dispatch(ctx) {
			return
		}
		counted++
		lt.Lookup(ctx, ctx.Frame, ctx.Pkt)
	})
	got := recvDSCP(b, 1)
	const n = 5
	before := wire.DefaultPool.Stats().Balance()
	for i := 0; i < n; i++ {
		b.net.Ports(b.hosts[0])[0].Send(dataFrame(b.hosts[0], b.hosts[1], 200, uint16(100+i)))
		b.net.Engine.Run()
	}
	if counted != n || len(*got) != n {
		t.Fatalf("application pipeline ran %d times and %d packets arrived, want %d each", counted, len(*got), n)
	}
	if lt.Stats.RecircPasses <= n {
		t.Fatalf("%d recirculation passes for %d packets, want more than one each", lt.Stats.RecircPasses, n)
	}
	if b.sw.Stats.Recirculated != lt.Stats.RecircPasses {
		t.Fatalf("switch recirculated %d frames, table counted %d passes", b.sw.Stats.Recirculated, lt.Stats.RecircPasses)
	}
	if bal := wire.DefaultPool.Stats().Balance(); bal != before {
		t.Fatalf("frame pool balance drifted %+d", bal-before)
	}
}

// TestLookupWithoutDispatchPanics: a pipeline that hands a recirculated frame
// to Lookup instead of Dispatch would restart the packet's pass count on
// every pass and never expire it, so Lookup refuses loudly.
func TestLookupWithoutDispatchPanics(t *testing.T) {
	b, lt := lookupBed(t, LookupConfig{Entries: 16, Mode: LookupRecirculate})
	var panicked any
	b.sw.Pipeline = switchsim.PipelineFunc(func(ctx *switchsim.Context) {
		if ctx.Pkt.IsRoCE {
			ctx.Drop()
			return
		}
		defer func() {
			if panicked = recover(); panicked != nil {
				ctx.Drop()
			}
		}()
		lt.Lookup(ctx, ctx.Frame, ctx.Pkt)
	})
	b.net.Ports(b.hosts[0])[0].Send(dataFrame(b.hosts[0], b.hosts[1], 128, 3))
	b.net.Engine.Run()
	if panicked == nil {
		t.Fatal("Lookup took a recirculated frame without panicking")
	}
}

// TestLookupOversizePacketDropped sends an oversize frame through a metered
// miss window: the miss reserves a credit in LookupPrio, and the oversize
// bail in depositAndFetch must drop that reservation, or the window leaks a
// credit per oversize frame.
func TestLookupOversizePacketDropped(t *testing.T) {
	b, lt := lookupBed(t, LookupConfig{Entries: 16, MaxPktBytes: 128, MaxOutstandingMisses: 4})
	populateAll(t, b, lt, SetDSCPAction(1))
	b.net.Ports(b.hosts[0])[0].Send(dataFrame(b.hosts[0], b.hosts[1], 1500, 1))
	b.net.Engine.Run()
	if b.hosts[1].Received != 0 {
		t.Fatal("oversize packet should have been dropped")
	}
	if lt.Stats.BadEntries != 1 {
		t.Fatalf("stats = %+v", lt.Stats)
	}
	cr := lt.ShardCredits(0).Stats
	if cr.Acquired != 1 || cr.Released != cr.Acquired {
		t.Fatalf("miss credits unbalanced at quiescence: %+v", cr)
	}
}

// TestLookupMalformedBounceRecycled: a bounced original that no longer
// parses when its entry comes back is a bad entry, not a packet. The
// pipeline here shrinks the IPv4 TotalLen below the header after the switch
// parsed the frame, so the deposit stores an original that fails to decode
// on the way back; HandleResponse must count it and recycle its copy.
func TestLookupMalformedBounceRecycled(t *testing.T) {
	b, lt := lookupBed(t, LookupConfig{Entries: 8})
	populateAll(t, b, lt, SetDSCPAction(10))
	b.sw.Pipeline = switchsim.PipelineFunc(func(ctx *switchsim.Context) {
		if b.disp.Dispatch(ctx) {
			return
		}
		totalLen := ctx.Frame[wire.EthernetLen+2 : wire.EthernetLen+4]
		totalLen[0], totalLen[1] = 0, wire.IPv4Len-1
		lt.Lookup(ctx, ctx.Frame, ctx.Pkt)
	})
	before := wire.DefaultPool.Stats().Balance()
	b.net.Ports(b.hosts[0])[0].Send(dataFrame(b.hosts[0], b.hosts[1], 256, 1234))
	b.net.Engine.Run()
	if b.hosts[1].Received != 0 {
		t.Fatal("malformed bounced original was delivered")
	}
	if lt.Stats.Deposits != 1 || lt.Stats.BadEntries != 1 || lt.Stats.Applied != 0 {
		t.Fatalf("stats = %+v, want 1 deposit, 1 bad entry, 0 applied", lt.Stats)
	}
	if bal := wire.DefaultPool.Stats().Balance(); bal != before {
		t.Fatalf("frame pool balance drifted %+d", bal-before)
	}
}

func TestPopulateLookupEntryBounds(t *testing.T) {
	region := &rnic.Region{RKey: 1, Base: 0, Size: 100}
	cfg := LookupConfig{Entries: 4, MaxPktBytes: 16}
	if err := PopulateLookupEntry(region, cfg, 50, SetDSCPAction(1)); err == nil {
		t.Fatal("out-of-region entry accepted")
	}
	if err := PopulateLookupEntry(region, cfg, -1, SetDSCPAction(1)); err == nil {
		t.Fatal("negative entry accepted")
	}
}

func TestRewriteHelpersFixChecksum(t *testing.T) {
	frame := dataFrame(netsim.NewHost("a", 1), netsim.NewHost("b", 2), 100, 5)
	defer wire.DefaultPool.Put(frame)
	rewriteDSCP(frame, 63)
	var p wire.Packet
	if err := p.DecodeFromBytes(frame); err != nil {
		t.Fatal(err)
	}
	if p.IP.DSCP != 63 {
		t.Fatalf("DSCP = %d", p.IP.DSCP)
	}
	// Checksum must still be valid.
	if !ipChecksumValid(frame) {
		t.Fatal("checksum stale after DSCP rewrite")
	}
	rewriteDstIP(frame, wire.IP4{9, 9, 9, 9})
	if !ipChecksumValid(frame) {
		t.Fatal("checksum stale after dst rewrite")
	}
}

func ipChecksumValid(frame []byte) bool {
	var h wire.IPv4
	if err := h.DecodeFromBytes(frame[wire.EthernetLen:]); err != nil {
		return false
	}
	tmp := make([]byte, wire.IPv4Len)
	copy(tmp, frame[wire.EthernetLen:wire.EthernetLen+wire.IPv4Len])
	var h2 wire.IPv4
	_ = h2.DecodeFromBytes(tmp)
	h2.Put(tmp)
	for i := range tmp {
		if tmp[i] != frame[wire.EthernetLen+i] {
			return false
		}
	}
	return true
}
