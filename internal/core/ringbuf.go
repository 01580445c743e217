package core

import (
	"fmt"
	"math"
	"slices"

	"gem/internal/core/verbs"
	"gem/internal/sim"
	"gem/internal/switchsim"
	"gem/internal/wire"
)

// PacketBufferConfig tunes the packet-buffer primitive.
type PacketBufferConfig struct {
	// EntrySize is the ring slot size; each slot stores one full-sized
	// Ethernet frame plus a 2-byte length prefix (paper: "we allocate the
	// buffer to store full-sized Ethernet frame in each entry").
	EntrySize int
	// HighWaterBytes: when the protected egress queue exceeds this, new
	// packets detour to the remote ring.
	HighWaterBytes int
	// LowWaterBytes: loading from the ring proceeds while the protected
	// queue sits below this. The two watermarks are independent triggers;
	// LowWater above HighWater is legal (load aggressively even while
	// still spilling).
	LowWaterBytes int
	// MaxOutstandingReads bounds in-flight READ requests across all
	// channels.
	MaxOutstandingReads int
	// PerChannelWindow caps in-flight READs per channel (the QP's responder
	// resources), independent of the global MaxOutstandingReads. 0 =
	// MaxOutstandingReads, which keeps the global limit binding.
	PerChannelWindow int
	// ReadLowWatermark is the per-channel window's gate-release point. 0 =
	// PerChannelWindow-1 (no hysteresis gap).
	ReadLowWatermark int
	// ShedRingEntries, when positive, sheds PriorityLow packets once ring
	// occupancy reaches this many entries, reserving the remaining ring for
	// PriorityHigh traffic. 0 = disabled.
	ShedRingEntries int
	// UnlimitedWindow disables per-channel credit refusal while keeping the
	// accounting — the test-only unbounded-growth ablation.
	UnlimitedWindow bool
}

// DefaultPacketBufferConfig returns the defaults used by the experiments.
func DefaultPacketBufferConfig() PacketBufferConfig {
	return PacketBufferConfig{
		EntrySize:           2048,
		HighWaterBytes:      512 << 10,
		LowWaterBytes:       256 << 10,
		MaxOutstandingReads: 16,
	}
}

// readTimeout re-issues a READ whose response never arrived (READs are
// idempotent, so retry is always safe).
const readTimeout = 200 * sim.Microsecond

func (c *PacketBufferConfig) fillDefaults() {
	d := DefaultPacketBufferConfig()
	if c.EntrySize == 0 {
		c.EntrySize = d.EntrySize
	}
	if c.HighWaterBytes == 0 {
		c.HighWaterBytes = d.HighWaterBytes
	}
	if c.LowWaterBytes == 0 {
		c.LowWaterBytes = d.LowWaterBytes
	}
	if c.MaxOutstandingReads == 0 {
		c.MaxOutstandingReads = d.MaxOutstandingReads
	}
	if c.PerChannelWindow == 0 {
		c.PerChannelWindow = c.MaxOutstandingReads
	}
}

// PacketBufferStats are the primitive's observable counters.
type PacketBufferStats struct {
	Bypassed       int64 // packets forwarded directly (queue healthy)
	Stored         int64 // packets spilled to the remote ring
	Loaded         int64 // packets pulled back and forwarded
	RingDrops      int64 // packets dropped because the remote ring was full
	StoreFails     int64 // WRITE requests the memory-link egress refused
	ReadRetries    int64 // READs re-issued after a timeout
	StaleResponses int64 // responses that matched no outstanding READ
	MaxDepth       int64 // peak ring occupancy in entries
	// DegradedBypassed counts packets sent straight to the egress queue
	// while the buffer was degraded (spilling suspended).
	DegradedBypassed int64
	// ShedLowPrio counts PriorityLow packets dropped at admission because
	// the ring crossed ShedRingEntries or the region gate was closed.
	ShedLowPrio int64
	// PressureBypassed counts PriorityHigh packets sent straight to the
	// egress queue while the region gate was closed — the ordering rule is
	// knowingly violated to avoid losing exact traffic, and the violation is
	// counted.
	PressureBypassed int64
	// SpillGateEntries / SpillGateExits count the per-channel region gate's
	// closings and reopenings.
	SpillGateEntries int64
	SpillGateExits   int64
	PostureStats
}

// PacketBuffer is the packet-buffer primitive (§4): a ring buffer in remote
// DRAM that extends one egress queue. When the queue passes the high-water
// mark the switch WRITEs every subsequent packet bound for it into the
// ring; as the queue drains it READs them back in order and forwards them.
// While any packet sits in the ring, all new arrivals for the port are also
// ring-routed, preserving order (the paper's ordering rule).
//
// The ring may be striped over several channels — "one or multiple servers"
// in §2.1 — because once detouring, the ordering rule sends the full
// arrival rate through the memory links: an n:1 incast at line rate needs
// about n server links of remote-buffer bandwidth. Placement lives in the
// striped transport (verbs.StripedQP): consecutive entries alternate
// servers and each shard's slot index advances like a private ring.
//
// The buffer decides *what* to spill and load (cursors, watermarks,
// ordering); the shared remote core posts through per-channel QPs, each
// with a private admission window (one credit per in-flight READ). PSN
// tracking, stale detection, response reassembly, credit release and
// timeout collection all live in the transport. The ring-entry number g
// doubles as the WQE token.
type PacketBuffer struct {
	remote
	cfg PacketBufferConfig

	// OutPort is the protected egress port.
	OutPort int

	perChan int // entries per channel
	total   int // total ring entries

	// Ring cursors are monotonically increasing; the striped transport owns
	// entry placement (home channel and slot offset derived from g).
	// tail: next entry to write; readNext: next to request;
	// emitNext: next to forward (order restoration point).
	cursors *switchsim.RegisterArray // 0=tail 1=readNext 2=emitNext
	detour  bool
	paused  bool
	// While degraded (remote.degraded) spilling is suspended: new packets
	// take the direct path (falling back to plain tail-drop queueing) while
	// already-stored entries keep draining, so leaving the degraded posture
	// needs no reconcile step. The ordering rule is knowingly violated —
	// that is the degradation contract when remote memory is unreliable.

	// spillGated is the per-channel region gate: closed while the channel's
	// share of the ring is past its high watermark (see spillAllowed).
	// peakOcc is each channel's highest occupancy the gate observed.
	spillGated []bool
	peakOcc    []int

	// reorder restores global emit order across channels for completed
	// entries (nil marks a malformed entry consumed without forwarding).
	reorder map[uint64][]byte

	// retry is the scratch list of READs retryStale reposts, reused so a
	// retry allocates nothing.
	retry []uint64

	Stats PacketBufferStats
}

const (
	regTail = iota
	regReadNext
	regEmitNext
)

// NewPacketBuffer wires the primitive to one or more channels protecting
// outPort. All channels should have the same region size and MTU.
func NewPacketBuffer(chans []*Channel, outPort int, cfg PacketBufferConfig) (*PacketBuffer, error) {
	cfg.fillDefaults()
	perChan := math.MaxInt
	for _, ch := range chans {
		perChan = min(perChan, ch.Size/cfg.EntrySize)
	}
	if perChan < 2 {
		return nil, fmt.Errorf("core: ring would have %d entries per channel; need >= 2", perChan)
	}
	b := &PacketBuffer{
		cfg: cfg, OutPort: outPort,
		perChan: perChan, total: perChan * len(chans),
		reorder:    make(map[uint64][]byte),
		spillGated: make([]bool, len(chans)),
		peakOcc:    make([]int, len(chans)),
	}
	err := b.init("packet buffer", chans, &b.Stats.PostureStats, 0,
		&verbs.CreditConfig{
			Window: cfg.PerChannelWindow, Low: cfg.ReadLowWatermark,
			Unlimited: cfg.UnlimitedWindow,
		},
		verbs.QPConfig{
			TokenIndex: true,
			Timeout:    readTimeout,
			// Progress guarantee: if a response is lost and the egress goes
			// idle (no departures to re-trigger loading), this kick retries.
			Kick:      b.maybeLoad,
			KickDelay: readTimeout + sim.Microsecond,
		},
		verbs.StripeConfig{EntrySize: cfg.EntrySize, SlotsPerShard: perChan})
	if err != nil {
		return nil, err
	}
	if b.cursors, err = switchsim.NewRegisterArray(b.sw.SRAM,
		fmt.Sprintf("pktbuf%d/cursors", chans[0].ID), 3); err != nil {
		return nil, err
	}
	return b, nil
}

// RegisterWith binds the primitive's channels to the dispatcher.
func (b *PacketBuffer) RegisterWith(d *Dispatcher) {
	for _, ch := range b.chans {
		d.Register(ch, b)
	}
}

// Depth returns the current ring occupancy in entries (stored, not yet
// forwarded).
func (b *PacketBuffer) Depth() int {
	return int(b.cursors.Get(regTail) - b.cursors.Get(regEmitNext))
}

// PauseLoading suspends READ issue — the §5 microbenchmark "manually
// start[s] the two steps respectively", and separating phases lets the
// harness measure pure store and pure load rates.
func (b *PacketBuffer) PauseLoading() { b.paused = true }

// ResumeLoading re-enables READ issue and immediately pulls.
func (b *PacketBuffer) ResumeLoading() {
	b.paused = false
	b.maybeLoad()
}

// Reconcile is the supervisor's recovery hook: stored entries drain on
// their own, so recovery is just re-enabling the spill path and pulling
// whatever is ready.
func (b *PacketBuffer) Reconcile() {
	b.SetConsistencyMode(Strict, StalenessBound{})
	b.maybeLoad()
}

// PeakOccupancy reports the most entries channel i's share of the ring held
// when the region gate looked at it.
func (b *PacketBuffer) PeakOccupancy(i int) int { return b.peakOcc[i] }

// chanOccupancy counts the entries channel i's region holds (stored, not
// yet forwarded): the ring entries g in [emitNext, tail) with g ≡ i mod n.
func (b *PacketBuffer) chanOccupancy(i int) int {
	n := uint64(len(b.chans))
	onChan := func(x uint64) uint64 { return (x + n - 1 - uint64(i)) / n }
	tail, emit := b.cursors.Get(regTail), b.cursors.Get(regEmitNext)
	return int(onChan(tail) - onChan(emit))
}

// spillAllowed decides whether a packet of priority prio may route to the
// remote ring right now. The region gate is a compare over the ring's own
// cursors: the channel the next entry lands on closes to new spills once
// its share of the ring reaches 90 % and reopens once it drains to 85 %,
// so a channel's region never fills while the gate can still divert
// traffic (store's ring-full check remains the last guard).
func (b *PacketBuffer) spillAllowed(prio switchsim.Priority) bool {
	c := b.striped.ShardOf(b.cursors.Get(regTail))
	occ := b.chanOccupancy(c)
	b.peakOcc[c] = max(b.peakOcc[c], occ)
	if !b.spillGated[c] && occ*10 >= 9*b.perChan { // 90 %
		b.spillGated[c] = true
		b.Stats.SpillGateEntries++
	} else if b.spillGated[c] && occ*20 <= 17*b.perChan { // 85 %
		b.spillGated[c] = false
		b.Stats.SpillGateExits++
	}
	if b.spillGated[c] {
		return false
	}
	if prio == switchsim.PriorityLow && b.cfg.ShedRingEntries > 0 &&
		b.Depth() >= b.cfg.ShedRingEntries {
		return false
	}
	return true
}

// Admit is the data-plane action: the application pipeline calls it for
// every packet destined to the protected port instead of Emit. It decides
// between the direct path and the remote ring. Admit is the high-priority
// path: it never sheds.
func (b *PacketBuffer) Admit(ctx *switchsim.Context, frame []byte) {
	b.AdmitPrio(ctx, frame, switchsim.PriorityHigh)
}

// AdmitPrio is Admit with an admission priority. When the spill path is
// gated — the channel's region past its watermark, or the ring past its
// low-priority reservation — PriorityHigh packets bypass to the egress
// queue (ordering knowingly violated, counted in PressureBypassed) and
// PriorityLow packets are shed (ShedLowPrio).
func (b *PacketBuffer) AdmitPrio(ctx *switchsim.Context, frame []byte, prio switchsim.Priority) {
	if b.degraded {
		b.Stats.DegradedBypassed++
		ctx.Emit(b.OutPort, frame)
		return
	}
	if !b.detour && ctx.QueueBytes(b.OutPort)+len(frame) <= b.cfg.HighWaterBytes {
		b.Stats.Bypassed++
		ctx.Emit(b.OutPort, frame)
		return
	}
	if !b.spillAllowed(prio) {
		if prio == switchsim.PriorityHigh {
			b.Stats.PressureBypassed++
			ctx.Emit(b.OutPort, frame)
		} else {
			b.Stats.ShedLowPrio++
			ctx.DropFrame(frame)
		}
		return
	}
	b.store(frame)
	b.maybeLoad()
}

func (b *PacketBuffer) store(frame []byte) {
	if len(frame)+2 > b.cfg.EntrySize {
		b.Stats.RingDrops++
		return
	}
	tail := b.cursors.Get(regTail)
	if tail-b.cursors.Get(regEmitNext) >= uint64(b.total) {
		b.Stats.RingDrops++ // remote ring full: the >10 GB pool exhausted
		return
	}
	// Scratch entry buffer: the WRITE post copies it into the request frame,
	// so it can go straight back to the pool.
	entry := wire.DefaultPool.Get(2 + len(frame))
	entry[0] = byte(len(frame) >> 8)
	entry[1] = byte(len(frame))
	copy(entry[2:], frame)
	ok := b.striped.PostWrite(tail, 0, entry)
	wire.DefaultPool.Put(entry)
	if !ok {
		b.Stats.StoreFails++
		return
	}
	b.cursors.Set(regTail, tail+1)
	b.detour = true
	b.Stats.Stored++
	if d := int64(b.Depth()); d > b.Stats.MaxDepth {
		b.Stats.MaxDepth = d
	}
}

// maybeLoad issues READ requests while the protected queue has room and
// stored packets remain, and retries any READ that has timed out.
func (b *PacketBuffer) maybeLoad() {
	b.retryStale()
	for b.detour && !b.paused &&
		b.cursors.Get(regReadNext) < b.cursors.Get(regTail) &&
		b.striped.Pending() < b.cfg.MaxOutstandingReads &&
		b.sw.QueueBytes(b.OutPort) < b.cfg.LowWaterBytes {
		g := b.cursors.Get(regReadNext)
		if !b.striped.CanPost(g) {
			return // channel window gated; responses will retrigger
		}
		ch := b.chans[b.striped.ShardOf(g)]
		if !b.striped.PostRead(g, b.cfg.EntrySize, ch.RespPackets(b.cfg.EntrySize), verbs.CreditTry) {
			return // memory-link egress full; departures will retrigger
		}
		b.cursors.Set(regReadNext, g+1)
	}
}

// retryStale re-issues READs whose responses were lost (request or
// response dropped on a saturated path).
func (b *PacketBuffer) retryStale() {
	if b.paused || b.striped.Pending() == 0 {
		return
	}
	// Retries issue READs, which consume PSNs: collect the timed-out entries
	// from every shard and re-issue in entry order so the PSN assignment
	// (and therefore the whole trace) is reproducible.
	b.retry = b.striped.AppendExpired(b.retry[:0])
	slices.Sort(b.retry)
	for _, g := range b.retry {
		if b.striped.Repost(g) {
			b.Stats.ReadRetries++
		}
	}
}

// PacketDeparted implements the egress hook trigger: each departure from
// the protected port is an opportunity to pull more packets back.
func (b *PacketBuffer) PacketDeparted(port int, queueBytes int) {
	if port == b.OutPort {
		b.maybeLoad()
	}
}

// PacketEnqueued implements switchsim.EgressHooks (no action needed).
func (b *PacketBuffer) PacketEnqueued(port int, queueBytes int) {}

// HandleResponse consumes READ responses: decapsulate the RoCE headers and
// forward the original packet to the protected port (§4: "The switch must
// parse the READ response, decapsulate the RoCE headers, and passes the
// original packet to the egress pipeline"). Matching, reassembly and stale
// detection live in the channel's QP; the buffer consumes completions.
func (b *PacketBuffer) HandleResponse(ctx *switchsim.Context, pkt *wire.Packet) {
	c, ok := b.shardOf(pkt.BTH.DestQP)
	if !ok {
		ctx.Drop()
		return
	}
	cqe, entry, status := b.striped.Shard(c).ReadResponse(pkt)
	switch status {
	case verbs.CQDone:
		b.finishEntry(ctx, cqe.Token, entry)
	case verbs.CQStale:
		b.Stats.StaleResponses++
		ctx.Drop()
	default: // partial (reassembly in progress) or ACK/NAK: consumed here
		ctx.Drop()
	}
}

// finishEntry consumes one completed ring entry (the QP has already retired
// the WQE and released its credit): stage it in the reorder buffer and emit
// everything now contiguous in global order.
func (b *PacketBuffer) finishEntry(ctx *switchsim.Context, g uint64, entry []byte) {
	var orig []byte
	if len(entry) >= 2 {
		n := int(entry[0])<<8 | int(entry[1])
		if n > 0 && 2+n <= len(entry) {
			// Copy-on-retain: entry aliases the response frame (or the
			// reassembly scratch), which is recycled when this pass ends.
			orig = wire.DefaultPool.Clone(entry[2 : 2+n])
		}
	}
	b.reorder[g] = orig

	// Emit in global order across channels.
	for {
		e := b.cursors.Get(regEmitNext)
		frame, ok := b.reorder[e]
		if !ok {
			break
		}
		delete(b.reorder, e)
		b.cursors.Set(regEmitNext, e+1)
		if frame != nil {
			b.Stats.Loaded++
			ctx.Emit(b.OutPort, frame)
		}
	}
	if b.Depth() == 0 && b.striped.Pending() == 0 {
		// Ring drained: new packets may take the direct path again.
		b.detour = false
	} else {
		b.maybeLoad()
	}
}
