package core

import (
	"fmt"

	"gem/internal/core/verbs"
	"gem/internal/rnic"
	"gem/internal/sim"
	"gem/internal/switchsim"
	"gem/internal/wire"
)

// LookupAction is the fixed 8-byte action stored in each remote table entry.
// Byte 0 is the action opcode; the remaining bytes are parameters.
type LookupAction [8]byte

// Action opcodes understood by ApplyDefault.
const (
	ActNop      uint8 = 0
	ActSetDSCP  uint8 = 1 // param: byte 1 = DSCP value (the paper's demo action)
	ActSetDstIP uint8 = 2 // params: bytes 1-4 = IPv4 address (bare-metal translation)
	ActDrop     uint8 = 3
)

// SetDSCPAction builds the paper's evaluation action: rewrite the IPv4 DSCP
// field to v.
func SetDSCPAction(v uint8) LookupAction {
	return LookupAction{ActSetDSCP, v}
}

// SetDstIPAction builds the bare-metal use-case action: rewrite the IPv4
// destination (virtual IP → physical IP).
func SetDstIPAction(ip wire.IP4) LookupAction {
	return LookupAction{ActSetDstIP, ip[0], ip[1], ip[2], ip[3]}
}

// LookupMode selects the miss-handling design.
type LookupMode int

const (
	// LookupDeposit is the paper's primary design: WRITE the original
	// packet into the entry's packet slot, then READ back {action,
	// packet}; the switch holds no per-packet state while waiting.
	LookupDeposit LookupMode = iota
	// LookupRecirculate is the §7 alternative: READ only the action and
	// recirculate the original packet locally until the entry arrives,
	// saving the deposit bandwidth at the cost of recirculation passes.
	// Dispatcher.Dispatch hands the packet back to the table on each pass,
	// so the pipeline must call it before Lookup.
	LookupRecirculate
)

// LookupConfig tunes the lookup-table primitive.
type LookupConfig struct {
	// Entries is the remote table size (hash-indexed, fixed entries).
	Entries int
	// MaxPktBytes is the packet slot size inside each entry. In deposit
	// mode the whole entry, 10 + MaxPktBytes, must fit in each channel's
	// MTU: the READ that fetches it back must answer in one packet.
	MaxPktBytes int
	// CacheEntries sizes the local SRAM action cache (0 disables caching).
	CacheEntries int
	// Mode selects deposit (default) or recirculation miss handling.
	Mode LookupMode
	// MaxRecircPasses bounds recirculation in LookupRecirculate mode.
	MaxRecircPasses int
	// MaxOutstandingMisses, when positive, caps in-flight remote lookups
	// with a credit window on the channel. Misses refused by a full window
	// are shed (PriorityLow) or resolved via SlowPath (PriorityHigh). 0 =
	// unbounded, the paper's original stateless behaviour.
	MaxOutstandingMisses int
	// UnlimitedWindow keeps the credit accounting but never refuses — the
	// test-only unbounded-growth ablation.
	UnlimitedWindow bool
}

func (c *LookupConfig) fillDefaults() {
	if c.MaxPktBytes == 0 {
		c.MaxPktBytes = 1600
	}
	if c.MaxRecircPasses == 0 {
		c.MaxRecircPasses = 8
	}
}

// The recirculation variant bridges a packet's table index and pass count
// in its metadata's low recircOwnerShift bits, the index above the count.
const (
	recircPassBits = 8
	recircIdxBits  = recircOwnerShift - recircPassBits
)

// missTimeout declares an unanswered remote lookup lost, releasing its
// credit.
const missTimeout = 500 * sim.Microsecond

// lookupEntryHeader is action (8) + packet length prefix (2).
const lookupEntryHeader = 10

// EntrySize returns the remote entry footprint for a config.
func (c *LookupConfig) EntrySize() int {
	return lookupEntryHeader + c.MaxPktBytes
}

// LookupStats are the primitive's observable counters.
type LookupStats struct {
	CacheHits     int64
	RemoteLookups int64 // misses that went to remote memory
	Applied       int64 // actions applied to packets
	Deposits      int64 // WRITEs of original packets (deposit mode)
	DepositFails  int64 // deposit WRITEs refused on the way out; packet dropped
	RecircPasses  int64 // recirculation passes (recirculate mode)
	RecircExpired int64 // packets dropped after MaxRecircPasses
	BadEntries    int64 // malformed remote entries
	// DegradedMisses counts cache misses handled while the table was
	// degraded (resolved by SlowPath or dropped) instead of going remote.
	DegradedMisses int64
	// ShedMisses counts PriorityLow misses dropped because the miss window
	// was full (never silent: the drop is a conscious admission decision).
	ShedMisses int64
	// CreditFallbacks counts PriorityHigh misses that could not go remote
	// (window full) and were resolved via SlowPath or dropped.
	CreditFallbacks int64
	// MissTimeouts counts remote lookups declared lost by the miss reaper.
	MissTimeouts int64
	PostureStats
}

// LookupTable is the lookup-table primitive (§4): a match-action table in
// remote DRAM, indexed by a hash of the packet's 5-tuple, consulted from
// the data plane on a local-table miss. With N channels the entry space
// stripes over them (entry i homes on server i mod N), which is how the
// §2.2 million-entry tables outgrow a single server's region.
//
// The shared remote core carries the misses: an entry's home shard
// correlates READ responses to in-flight lookups by request PSN (the
// recirculation variant additionally indexes them by table index as the WQE
// token), releases each miss credit exactly once (windows exist only when
// MaxOutstandingMisses is set), and reaps lookups whose answers never
// arrived.
type LookupTable struct {
	remote
	cfg LookupConfig

	cache *switchsim.CacheTable[wire.FlowKey, LookupAction]

	// Apply is invoked with the packet and its action once resolved. The
	// default applies ActSetDSCP/ActSetDstIP/ActDrop and emits to
	// DefaultOutPort.
	Apply func(ctx *switchsim.Context, frame []byte, action LookupAction)
	// DefaultOutPort is where ApplyDefault emits processed packets.
	DefaultOutPort int

	// SlowPath resolves a miss while the table is degraded — the model of
	// punting to the switch CPU, which holds (a shard of) the mapping, when
	// remote memory is unreachable. Nil means degraded misses drop.
	SlowPath func(key wire.FlowKey) (LookupAction, bool)

	// pendingActions holds actions fetched by the recirculation variant,
	// keyed by table index, until its packet comes around again.
	pendingActions map[int]LookupAction

	Stats LookupStats
}

// NewLookupTable wires the primitive to channel ch. The channel's region
// must hold cfg.Entries entries of cfg.EntrySize() bytes.
func NewLookupTable(ch *Channel, cfg LookupConfig) (*LookupTable, error) {
	return NewStripedLookupTable([]*Channel{ch}, cfg)
}

// NewStripedLookupTable wires the primitive across chans (one per memory
// server): entry i homes on chans[i mod N] at offset (i div N)*EntrySize,
// so each region must hold ceil(Entries/N) entries.
func NewStripedLookupTable(chans []*Channel, cfg LookupConfig) (*LookupTable, error) {
	cfg.fillDefaults()
	if cfg.Entries <= 0 {
		return nil, fmt.Errorf("core: lookup table needs a positive entry count")
	}
	if cfg.Mode == LookupRecirculate && (cfg.Entries > 1<<recircIdxBits || cfg.MaxRecircPasses >= 1<<recircPassBits) {
		// A value that overflows its metadata field would alias another.
		return nil, fmt.Errorf("core: recirculation metadata holds at most %d entries and %d passes",
			1<<recircIdxBits, 1<<recircPassBits-1)
	}
	if cfg.Mode == LookupDeposit {
		// A data plane cannot join a multi-packet READ response into one
		// packet without buffering it, and avoiding that buffer is the
		// point of the deposit. (Recirculation reads only the 8-byte action.)
		for _, ch := range chans {
			if cfg.EntrySize() > ch.MTU {
				return nil, fmt.Errorf("core: lookup entry of %d bytes exceeds channel %d's %d-byte MTU; MaxPktBytes must be at most %d",
					cfg.EntrySize(), ch.ID, ch.MTU, ch.MTU-lookupEntryHeader)
			}
		}
	}
	t := &LookupTable{cfg: cfg, pendingActions: make(map[int]LookupAction)}
	var credit *verbs.CreditConfig
	if cfg.MaxOutstandingMisses > 0 {
		credit = &verbs.CreditConfig{
			Window:    cfg.MaxOutstandingMisses,
			Unlimited: cfg.UnlimitedWindow,
		}
	}
	err := t.init("lookup table", chans, &t.Stats.PostureStats, cfg.Entries, credit,
		verbs.QPConfig{
			// The recirculation variant dedups concurrent fetches per table
			// index, so the index doubles as the WQE token.
			TokenIndex: cfg.Mode == LookupRecirculate,
			Reap:       true,
			Timeout:    missTimeout,
			OnExpired:  func(verbs.OpType, uint64) { t.Stats.MissTimeouts++ },
		},
		verbs.StripeConfig{EntrySize: cfg.EntrySize()})
	if err != nil {
		return nil, err
	}
	t.Apply = t.ApplyDefault
	if cfg.CacheEntries > 0 {
		// A cached entry costs key (13B) + action (8B) ≈ 24B of SRAM.
		cache, err := switchsim.NewCacheTable[wire.FlowKey, LookupAction](
			t.sw.SRAM, fmt.Sprintf("lookup%d/cache", chans[0].ID), cfg.CacheEntries, 24)
		if err != nil {
			return nil, err
		}
		t.cache = cache
	}
	return t, nil
}

// Cache exposes the local cache (nil when disabled).
func (t *LookupTable) Cache() *switchsim.CacheTable[wire.FlowKey, LookupAction] { return t.cache }

// Reconcile is the supervisor's recovery hook: degraded lookups kept no
// local backlog (the slow path answered them terminally), so recovery is
// just re-enabling remote resolution.
func (t *LookupTable) Reconcile() { t.SetConsistencyMode(Strict, StalenessBound{}) }

// Lookup is the data-plane action: resolve the action for frame (whose
// parsed form is pkt) and apply it. Cache hits complete locally; misses go
// to remote memory with zero switch-side packet storage (deposit mode).
// Lookup is the high-priority path: it is never shed.
func (t *LookupTable) Lookup(ctx *switchsim.Context, frame []byte, pkt *wire.Packet) {
	t.LookupPrio(ctx, frame, pkt, switchsim.PriorityHigh)
}

// LookupPrio is Lookup with an admission priority. When the miss window is
// full, PriorityLow misses are shed and PriorityHigh misses fall back to
// the CPU slow path (or drop), so remote lookup load is bounded.
func (t *LookupTable) LookupPrio(ctx *switchsim.Context, frame []byte, pkt *wire.Packet, prio switchsim.Priority) {
	if ctx.InPort == switchsim.RecirculationPort {
		// A fresh lookup would restart the packet's pass count, forever.
		panic("core: a recirculated frame reached Lookup: call Dispatcher.Dispatch first")
	}
	key := wire.FlowOf(pkt)
	if t.cache != nil {
		if action, ok := t.cache.Lookup(key); ok {
			t.Stats.CacheHits++
			t.Stats.Applied++
			t.Apply(ctx, frame, action)
			return
		}
	}
	if t.degraded {
		// Degraded mode: the memory link is down or the server unreachable,
		// so misses must not go remote. Resolve on the CPU slow path (and
		// warm the cache so recovery is graceful) or drop.
		t.Stats.DegradedMisses++
		t.slowPathOrDrop(ctx, frame, key)
		return
	}
	idx := key.Index(t.cfg.Entries)
	home := t.striped.Home(uint64(idx))
	if t.cfg.MaxOutstandingMisses > 0 && t.needsMissRead(idx) {
		home.ReapExpired()
		// The reservation is consumed by the Post* in depositAndFetch or
		// recircFetch below, or dropped by depositAndFetch's oversize bail
		// (TestLookupOversizePacketDropped checks the window balances).
		if !home.TryReserve(verbs.OpRead) {
			if prio == switchsim.PriorityLow {
				t.Stats.ShedMisses++
				ctx.DropFrame(frame)
				return
			}
			t.Stats.CreditFallbacks++
			t.slowPathOrDrop(ctx, frame, key)
			return
		}
	}
	t.Stats.RemoteLookups++
	switch t.cfg.Mode {
	case LookupDeposit:
		t.depositAndFetch(ctx, frame, idx)
	case LookupRecirculate:
		t.recircFetch(ctx, frame, idx, 0)
	}
}

// slowPathOrDrop resolves a miss that must not go remote: via the CPU slow
// path when available (warming the cache), dropping otherwise.
func (t *LookupTable) slowPathOrDrop(ctx *switchsim.Context, frame []byte, key wire.FlowKey) {
	if t.SlowPath != nil {
		if action, ok := t.SlowPath(key); ok {
			if t.cache != nil {
				t.cache.Put(key, action)
			}
			t.Stats.Applied++
			t.Apply(ctx, frame, action)
			return
		}
	}
	ctx.DropFrame(frame)
}

// needsMissRead reports whether resolving a miss on idx would issue a new
// remote READ right now (deposit mode always does; recirculation only when
// no action is pending and no fetch is already in flight).
func (t *LookupTable) needsMissRead(idx int) bool {
	if t.cfg.Mode == LookupRecirculate {
		if _, ok := t.pendingActions[idx]; ok {
			return false
		}
		return !t.striped.TokenPending(uint64(idx))
	}
	return true
}

// depositAndFetch bounces the original packet through the remote entry:
// WRITE it into the packet slot, then READ back {action, length, packet} —
// 10 + len(frame) bytes, not the slot's slack after the packet. The
// constructor keeps every entry within the MTU, so the answer is one packet.
func (t *LookupTable) depositAndFetch(ctx *switchsim.Context, frame []byte, idx int) {
	if len(frame) > t.cfg.MaxPktBytes {
		t.Stats.BadEntries++
		t.striped.Home(uint64(idx)).DropReservation()
		ctx.Drop()
		return
	}
	// Scratch deposit buffer: the WRITE post copies it into the request
	// frame, so it goes straight back to the pool.
	deposit := wire.DefaultPool.Get(2 + len(frame))
	deposit[0] = byte(len(frame) >> 8)
	deposit[1] = byte(len(frame))
	copy(deposit[2:], frame)
	// The deposit lands after the 8-byte action field. A refused WRITE
	// leaves the entry holding its previous packet, which a fetch would
	// deliver in this one's place: drop the packet instead, and the miss's
	// reservation with it.
	ok := t.striped.PostWrite(uint64(idx), 8, deposit)
	wire.DefaultPool.Put(deposit)
	if !ok {
		t.Stats.DepositFails++
		t.striped.Home(uint64(idx)).DropReservation()
		ctx.Drop()
		return
	}
	t.Stats.Deposits++
	// CreditLoose: the fetch goes out whether or not a credit is held — the
	// switch stores nothing per packet, the window merely meters misses. If
	// the READ was refused downstream (egress full), the reaper releases the
	// credit after missTimeout — self-healing either way.
	//gem:post-ok loose-mode fetch: a refusal is metered by the reaper, not handled here (path: TestLookupDepositBouncesPacketThroughRemoteEntry)
	t.striped.PostRead(uint64(idx), lookupEntryHeader+len(frame), 1, verbs.CreditLoose)
	ctx.Drop() // original is gone: it lives in remote memory now
}

// recircFetch implements the §7 alternative: fetch only the 8-byte action
// and recirculate the packet meanwhile.
func (t *LookupTable) recircFetch(ctx *switchsim.Context, frame []byte, idx, pass int) {
	if action, ok := t.pendingActions[idx]; ok {
		delete(t.pendingActions, idx)
		t.Stats.Applied++
		t.Apply(ctx, frame, action)
		return
	}
	if pass >= t.cfg.MaxRecircPasses {
		t.Stats.RecircExpired++
		ctx.Drop()
		return
	}
	if !t.striped.TokenPending(uint64(idx)) {
		// CreditAdmit: consume the admission reservation (or take a fresh
		// credit on a re-issue after a reap); a refusal skips the fetch and
		// the recirculating packet simply comes around again.
		//gem:post-ok refusal skips the fetch; the recirculating packet retries it (path: TestLookupRecirculateMode)
		t.striped.PostRead(uint64(idx), 8, 1, verbs.CreditAdmit)
	}
	t.Stats.RecircPasses++
	// The packet re-enters the pipeline, where the Dispatcher hands it back
	// to recirculated with (idx, pass+1) bridged under the owner's QPN.
	ctx.Recirculate(frame, int(t.chans[0].ID)<<recircOwnerShift|idx<<recircPassBits|(pass+1))
}

// recirculated runs the next pass of a packet recircFetch recirculated.
func (t *LookupTable) recirculated(ctx *switchsim.Context, meta int) {
	t.recircFetch(ctx, ctx.Frame, meta>>recircPassBits, meta&(1<<recircPassBits-1))
}

// HandleResponse consumes READ responses from the remote table.
func (t *LookupTable) HandleResponse(ctx *switchsim.Context, pkt *wire.Packet) {
	if !pkt.BTH.Opcode.IsReadResponse() {
		ctx.Drop() // ACKs ignored by the prototype
		return
	}
	if pkt.BTH.Opcode != wire.OpReadResponseOnly {
		// Every READ this table issues is answered in one packet (the
		// constructor refuses a deposit entry the MTU would split, and
		// recirculation reads 8 bytes), so a First, Middle or Last packet
		// carries no entry: reading its bytes as an action and a length
		// would apply garbage.
		t.Stats.BadEntries++
		ctx.Drop()
		return
	}
	// The response echoes the request PSN; complete the miss the moment the
	// answer lands, well-formed or not, releasing its credit. An answer to
	// an already-reaped lookup misses the work queue. The echoed
	// destination QPN routes the completion to its shard (shardOf).
	var cqe verbs.CQE
	matched := false
	if si, ok := t.shardOf(pkt.BTH.DestQP); ok {
		cqe, matched = t.striped.Shard(si).CompleteExact(pkt.BTH.PSN)
	}
	payload := pkt.Payload
	if len(payload) < 8 {
		t.Stats.BadEntries++
		ctx.Drop()
		return
	}
	var action LookupAction
	copy(action[:], payload[:8])

	if t.cfg.Mode == LookupRecirculate {
		// Action-only fetch: the completed WQE's token is the table index
		// the fetch was issued for.
		if matched {
			t.pendingActions[int(cqe.Token)] = action
		}
		ctx.Drop()
		return
	}

	if len(payload) < lookupEntryHeader {
		t.Stats.BadEntries++
		ctx.Drop()
		return
	}
	plen := int(payload[8])<<8 | int(payload[9])
	if plen <= 0 || lookupEntryHeader+plen > len(payload) {
		t.Stats.BadEntries++
		ctx.Drop()
		return
	}
	// Copy-on-retain: payload aliases the response frame, which is recycled
	// when this pass ends; the bounced original outlives it (Emit).
	orig := wire.DefaultPool.Clone(payload[lookupEntryHeader : lookupEntryHeader+plen])
	// Re-parse the bounced original to recover its flow key for caching.
	var inner wire.Packet
	if err := inner.DecodeFromBytes(orig); err != nil {
		t.Stats.BadEntries++
		wire.DefaultPool.Put(orig) // bounced original is malformed: recycle it
		ctx.Drop()
		return
	}
	if t.cache != nil {
		t.cache.Put(wire.FlowOf(&inner), action)
	}
	t.Stats.Applied++
	t.Apply(ctx, orig, action)
}

// ApplyDefault interprets the built-in action opcodes and emits to
// DefaultOutPort.
func (t *LookupTable) ApplyDefault(ctx *switchsim.Context, frame []byte, action LookupAction) {
	if !t.ApplyActionOnly(frame, action) {
		// frame may be the bounced original (deposit mode), not the
		// ingress buffer: DropFrame recycles whichever it is correctly.
		ctx.DropFrame(frame)
		return
	}
	ctx.Emit(t.DefaultOutPort, frame)
}

// ApplyActionOnly mutates frame per the built-in action opcodes, without a
// forwarding decision. It reports false when the action is a drop.
func (t *LookupTable) ApplyActionOnly(frame []byte, action LookupAction) bool {
	switch action[0] {
	case ActDrop:
		return false
	case ActSetDSCP:
		rewriteDSCP(frame, action[1])
	case ActSetDstIP:
		rewriteDstIP(frame, wire.IP4{action[1], action[2], action[3], action[4]})
	}
	return true
}

// rewriteDSCP patches the IPv4 DSCP field in place and fixes the checksum.
func rewriteDSCP(frame []byte, dscp uint8) {
	if len(frame) < wire.EthernetLen+wire.IPv4Len {
		return
	}
	ip := frame[wire.EthernetLen:]
	ip[1] = dscp<<2 | ip[1]&0x3
	reChecksumIPv4(ip)
}

// rewriteDstIP patches the IPv4 destination in place and fixes the checksum.
func rewriteDstIP(frame []byte, dst wire.IP4) {
	if len(frame) < wire.EthernetLen+wire.IPv4Len {
		return
	}
	ip := frame[wire.EthernetLen:]
	copy(ip[16:20], dst[:])
	reChecksumIPv4(ip)
}

func reChecksumIPv4(ip []byte) {
	var h wire.IPv4
	if err := h.DecodeFromBytes(ip); err == nil {
		h.Put(ip)
	}
}

// PopulateLookupEntry writes an action into entry idx of the remote table's
// backing region — the server-side (control-plane, init-time) population of
// the sharded mapping table described in §2.2. It opens the region whole
// (Bytes): a table is populated end to end, and one slab is what that costs
// least — filled page by page, the 200 MB table of bench/'s lookup_zipf took
// 35 % longer to set up.
func PopulateLookupEntry(region *rnic.Region, cfg LookupConfig, idx int, action LookupAction) error {
	cfg.fillDefaults()
	base := idx * cfg.EntrySize()
	if idx < 0 || base+8 > region.Size {
		return fmt.Errorf("core: lookup entry %d outside region", idx)
	}
	copy(region.Bytes()[base:base+8], action[:])
	return nil
}
