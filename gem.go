// Package gem is the public API of the GEM library — a faithful, simulated
// reproduction of "Generic External Memory for Switch Data Planes"
// (HotNets 2018): programmable-switch data planes that use server DRAM
// behind commodity RDMA NICs as a remote memory tier, with zero server CPU
// involvement after setup.
//
// The package wires the substrates (discrete-event network, RoCEv2 wire
// codecs, RNIC model, programmable switch model) into a Testbed and
// re-exports the three remote-memory primitives:
//
//   - PacketBuffer — spill an egress queue into a remote ring buffer and
//     pull packets back in order (mitigating incast loss, §2.1);
//   - LookupTable — hash-indexed match-action entries in remote DRAM with a
//     local SRAM cache (bare-metal address translation, §2.2);
//   - StateStore — per-flow counters updated with RDMA Fetch-and-Add
//     (telemetry at DRAM scale, §2.3).
//
// All three primitives post their remote operations through one shared
// verbs-style transport core (internal/core/verbs): a work-queue /
// completion-queue layer that allocates PSNs, meters posts with credits,
// matches responses, detects stale completions after retries, and recovers
// from loss. Testbed.Stats folds every primitive's transport counters into
// StatsSnapshot.Transport.
//
// Quickstart:
//
//	tb, _ := gem.New(gem.Options{Hosts: 2, MemoryServers: 1})
//	ch, _ := tb.Establish(0, gem.ChannelSpec{RegionSize: 1 << 20})
//	ss, _ := gem.NewStateStore(ch, gem.StateStoreConfig{Counters: 1024})
//	tb.Dispatcher.Register(ch, ss)
//	tb.SetPipeline(func(ctx *gem.Context) { ... ss.UpdateFlow(...) ... })
//	tb.Run()
//
// See examples/ for complete programs, internal/harness for the experiment
// reproductions (cmd/gem-bench prints them) and bench/ for the benchmark.
package gem

import (
	"fmt"

	"gem/internal/core"
	"gem/internal/core/verbs"
	"gem/internal/netsim"
	"gem/internal/rnic"
	"gem/internal/sim"
	"gem/internal/switchsim"
	"gem/internal/wire"
)

// Re-exported types: the facade's vocabulary is the core vocabulary.
type (
	// Channel is the data-plane end of one switch↔RNIC RDMA channel.
	Channel = core.Channel
	// Dispatcher routes RoCE responses to the primitive owning them.
	Dispatcher = core.Dispatcher
	// Context is the per-packet pipeline context.
	Context = switchsim.Context
	// Packet is a parsed frame.
	Packet = wire.Packet
	// FlowKey is the 5-tuple key primitives hash on.
	FlowKey = wire.FlowKey

	// PacketBuffer is the remote packet-buffer primitive.
	PacketBuffer = core.PacketBuffer
	// PacketBufferConfig tunes it.
	PacketBufferConfig = core.PacketBufferConfig
	// LookupTable is the remote lookup-table primitive.
	LookupTable = core.LookupTable
	// LookupConfig tunes it.
	LookupConfig = core.LookupConfig
	// LookupAction is the 8-byte action stored per entry.
	LookupAction = core.LookupAction
	// StateStore is the remote state-store primitive.
	StateStore = core.StateStore
	// StateStoreConfig tunes it.
	StateStoreConfig = core.StateStoreConfig
	// Retransmitter is the §7 reliability extension.
	Retransmitter = core.Retransmitter
	// Failover is the §7 robustness extension (server crash handling).
	Failover = core.Failover
	// QP is one primitive's work queue over a channel — the shared verbs
	// transport every primitive posts through (introspection via the
	// primitives' Transport accessors).
	QP = verbs.QP
	// StripedQP is one logical work queue sharded over several servers'
	// QPs by key (modulo placement, per-shard credit windows and failover
	// domains, merged completions and stats).
	StripedQP = verbs.StripedQP
	// MirroredQP shadow-posts every WRITE/FAA on a primary QP to a replica
	// server's QP, so a primary crash loses nothing (Sync) or a bounded,
	// counted amount (Async). Built via StateStore.Replicate.
	MirroredQP = verbs.MirroredQP
	// MirrorConfig tunes a MirroredQP (mode, async lag bound, journal depth).
	MirrorConfig = verbs.MirrorConfig
	// MirrorStats is a MirroredQP's counter block, merged into
	// TransportStats.Mirror by Testbed.Stats.
	MirrorStats = verbs.MirrorStats
	// LagHist is the log2 replication-lag histogram inside MirrorStats.
	LagHist = verbs.LagHist
	// ReplicationMode selects Off, Sync or Async mirroring.
	ReplicationMode = verbs.ReplicationMode
	// DoorbellConfig tunes a QP's doorbell-batched posting ring (deferred
	// FAAs coalescing until a size / age / delta trigger flushes them).
	DoorbellConfig = verbs.DoorbellConfig
	// TransportStats is a QP's counter block — posted / completed / stale /
	// retried / refused / expired per operation type, plus typed error
	// completions and the post→CQE latency histogram, Add-mergeable.
	// Testbed.Stats aggregates it as StatsSnapshot.Transport.
	TransportStats = verbs.Stats
	// TransportErrors are the typed error-completion counters (NAK-PSN,
	// NAK-RKey, RetryExhausted, CreditRefused, FailoverExhausted, Canceled).
	TransportErrors = verbs.ErrStats
	// LatencyHist is the allocation-free log2 post→CQE latency histogram
	// embedded in TransportStats.
	LatencyHist = verbs.LatencyHist
	// CQStatus classifies a completion (OK, Stale, or a typed error).
	CQStatus = verbs.CQStatus

	// ConsistencyMode is a primitive's state-access contract: Strict,
	// BoundedStaleness or Eventual.
	ConsistencyMode = core.ConsistencyMode
	// StalenessBound parameterizes BoundedStaleness (MaxAge, MaxDelta).
	StalenessBound = core.StalenessBound
	// Supervisor is the automatic degrade/recover health state machine
	// (Healthy → Suspect → Degraded → Recovering) over governed primitives.
	Supervisor = core.Supervisor
	// SupervisorConfig tunes its thresholds and hysteresis.
	SupervisorConfig = core.SupervisorConfig
	// SupervisorTarget wires one governed primitive into the supervisor.
	SupervisorTarget = core.SupervisorTarget
	// HealthState is a governed target's position in the state machine.
	HealthState = core.HealthState
	// Scrubber is the anti-entropy repair agent comparing a primary window
	// against its replica and copying over divergence.
	Scrubber = core.Scrubber
	// ScrubConfig tunes a Scrubber (interval, chunk size, live gate).
	ScrubConfig = core.ScrubConfig
	// ScrubStats count a Scrubber's checks and repairs.
	ScrubStats = core.ScrubStats

	// Host is a plain server endpoint.
	Host = netsim.Host
	// NIC is an RDMA NIC model.
	NIC = rnic.NIC
	// Switch is the programmable switch model.
	Switch = switchsim.Switch
	// Duration and Time are virtual-clock quantities.
	Duration = sim.Duration
	Time     = sim.Time
)

// Re-exported constructors and helpers.
var (
	// NewPacketBuffer wires the packet-buffer primitive to channels.
	NewPacketBuffer = core.NewPacketBuffer
	// NewLookupTable wires the lookup-table primitive to a channel.
	NewLookupTable = core.NewLookupTable
	// NewStripedLookupTable stripes the table's entries over several
	// servers' channels (entry idx mod N is its home shard).
	NewStripedLookupTable = core.NewStripedLookupTable
	// NewStateStore wires the state-store primitive to a channel.
	NewStateStore = core.NewStateStore
	// NewStripedStateStore stripes the counters over several servers'
	// channels (counter idx mod N is its home shard).
	NewStripedStateStore = core.NewStripedStateStore
	// NewRetransmitter wraps a channel with ACK/NAK-driven recovery.
	NewRetransmitter = core.NewRetransmitter
	// NewFailover builds a primary+standby channel group with data-plane
	// heartbeats and automatic switchover.
	NewFailover = core.NewFailover
	// NewSupervisor builds the consistency supervisor on an engine.
	NewSupervisor = core.NewSupervisor
	// Govern builds a supervisor target for any of the three primitives
	// (plus an optional failover group's liveness); a state store's replica
	// lag feeds the pressure signal.
	Govern = core.Govern
	// SetDSCPAction / SetDstIPAction / DropAction build lookup actions.
	SetDSCPAction  = core.SetDSCPAction
	SetDstIPAction = core.SetDstIPAction
	DropAction     = core.DropAction
	// PopulateLookupEntry installs an action server-side at init time.
	PopulateLookupEntry = core.PopulateLookupEntry
	// PopulateStripedLookupEntry is its striped form: idx mod N picks the
	// region, idx div N the slot.
	PopulateStripedLookupEntry = core.PopulateStripedLookupEntry
	// FlowOf extracts the 5-tuple of a parsed packet.
	FlowOf = wire.FlowOf
)

// Lookup miss-handling modes.
const (
	// LookupDeposit bounces the packet through the remote entry (§4).
	LookupDeposit = core.LookupDeposit
	// LookupRecirculate parks the packet on the recirculation path and
	// fetches only the action (§7 alternative).
	LookupRecirculate = core.LookupRecirculate
)

// Consistency modes for SetConsistencyMode and SupervisorConfig.
const (
	// Strict is the synchronous contract: every admitted update heads for
	// remote memory as soon as credits allow.
	Strict = core.Strict
	// BoundedStaleness proceeds on the local copy and flushes before the
	// configured age or delta bound is exceeded.
	BoundedStaleness = core.BoundedStaleness
	// Eventual accumulates locally and reconciles opportunistically.
	Eventual = core.Eventual
)

// Health states reported by Supervisor.State.
const (
	Healthy    = core.Healthy
	Suspect    = core.Suspect
	Degraded   = core.Degraded
	Recovering = core.Recovering
)

// Replication modes for StateStore.Replicate.
const (
	// ReplicationOff posts to the primary only.
	ReplicationOff = verbs.ReplicationOff
	// ReplicationSync mirrors every post immediately; a primary crash
	// loses nothing once the replica has acknowledged.
	ReplicationSync = verbs.ReplicationSync
	// ReplicationAsync mirrors with a bounded lag; entries past the bound
	// are declared lost and surface as typed CQReplicaLost completions.
	ReplicationAsync = verbs.ReplicationAsync
)

// Wire encapsulation versions for ChannelSpec.
const (
	RoCEv1 = wire.RoCEv1
	RoCEv2 = wire.RoCEv2
)

// PSN modes for ChannelSpec.
const (
	// PSNTolerant is the prototype mode: the responder tolerates gaps
	// because the switch never retransmits.
	PSNTolerant = rnic.PSNTolerant
	// PSNStrict is InfiniBand RC behaviour, for the reliability extension
	// and native-RDMA baselines.
	PSNStrict = rnic.PSNStrict
)

// Options configures a Testbed.
type Options struct {
	// Seed drives all randomness; runs with equal seeds replay exactly.
	Seed int64
	// Hosts is the number of plain servers (ports 0..Hosts-1).
	Hosts int
	// MemoryServers is the number of RNIC-equipped memory servers
	// (ports Hosts..Hosts+MemoryServers-1).
	MemoryServers int
	// LinkRateBps sets every link's rate (default 40 Gbps, the paper's
	// testbed).
	LinkRateBps float64
	// Propagation is the one-way link delay (default 250 ns).
	Propagation sim.Duration
	// MemLinkLossRate, if set, drops frames on the memory-server links
	// (reliability experiments).
	MemLinkLossRate float64
	// Switch configures the switch model (zero = Tofino-like defaults).
	Switch switchsim.Config
	// NIC configures the memory-server RNICs (zero = CX-3 Pro-like).
	NIC rnic.Config
}

// Testbed is a wired single-ToR topology: the paper's testbed generalized
// to n hosts and m memory servers.
type Testbed struct {
	Net        *netsim.Net
	Engine     *sim.Engine
	Switch     *switchsim.Switch
	Hosts      []*netsim.Host
	MemHosts   []*netsim.Host
	MemNICs    []*rnic.NIC
	Controller *core.Controller
	Dispatcher *core.Dispatcher

	hostPorts []*netsim.Port // host-side port of each host link

	// chanNIC remembers which server NIC each channel was established to,
	// keyed by the channel's switch-side QPN. RKeys and QPNs are per-NIC
	// namespaces, so with several memory servers they collide — a lookup by
	// RKey alone can land on the wrong server's DRAM.
	chanNIC map[uint32]*rnic.NIC

	// chans lists every channel Establish created, in creation order, for
	// testbed-wide introspection (Stats).
	chans []*core.Channel

	// monitor, when installed via SetPressureMonitor, feeds remote-memory
	// occupancy tiers into Stats.
	monitor *PressureMonitor

	// scrubbers lists every anti-entropy scrubber built via NewScrubber, so
	// Stats can fold their check/repair counters into the snapshot.
	scrubbers []*core.Scrubber
}

// New builds and wires a testbed.
func New(opts Options) (*Testbed, error) {
	if opts.Hosts < 0 || opts.MemoryServers < 0 || opts.Hosts+opts.MemoryServers == 0 {
		return nil, fmt.Errorf("gem: need at least one device (hosts=%d mem=%d)",
			opts.Hosts, opts.MemoryServers)
	}
	link := netsim.Link40G()
	if opts.LinkRateBps > 0 {
		link.RateBps = opts.LinkRateBps
	}
	if opts.Propagation > 0 {
		link.Propagation = opts.Propagation
	}
	n := netsim.New(opts.Seed)
	sw := switchsim.New("tor", n.Engine, opts.Switch)
	tb := &Testbed{Net: n, Engine: n.Engine, Switch: sw}
	var swPorts []*netsim.Port
	for i := 0; i < opts.Hosts; i++ {
		h := netsim.NewHost(fmt.Sprintf("h%d", i), uint32(i+1))
		sp, hp := n.Connect(sw, h, link)
		swPorts = append(swPorts, sp)
		tb.Hosts = append(tb.Hosts, h)
		tb.hostPorts = append(tb.hostPorts, hp)
	}
	memLink := link
	memLink.LossRate = opts.MemLinkLossRate
	for i := 0; i < opts.MemoryServers; i++ {
		mh := netsim.NewHost(fmt.Sprintf("mem%d", i), uint32(200+i))
		nic := rnic.New(fmt.Sprintf("rnic%d", i), mh, opts.NIC)
		sp, np := n.Connect(sw, nic, memLink)
		nic.Bind(n.Engine, np)
		swPorts = append(swPorts, sp)
		tb.MemHosts = append(tb.MemHosts, mh)
		tb.MemNICs = append(tb.MemNICs, nic)
	}
	sw.Bind(swPorts...)
	tb.Controller = core.NewController(sw)
	tb.Dispatcher = core.NewDispatcher()
	return tb, nil
}

// HostPort returns host i's own port (for injecting traffic).
func (tb *Testbed) HostPort(i int) *netsim.Port { return tb.hostPorts[i] }

// SwitchPortOfHost returns the switch port index facing host i.
func (tb *Testbed) SwitchPortOfHost(i int) int { return i }

// SwitchPortOfMem returns the switch port index facing memory server i.
func (tb *Testbed) SwitchPortOfMem(i int) int { return len(tb.Hosts) + i }

// ChannelSpec describes a channel to establish on a memory server.
type ChannelSpec struct {
	// RegionSize is the DRAM to reserve (bytes).
	RegionSize int
	// RegionBase is the virtual base address (default 0x10000000).
	RegionBase uint64
	// Mode is the responder PSN policy (default PSNTolerant, the
	// prototype's fire-and-forget mode).
	Mode rnic.PSNMode
	// AckReq requests per-op ACKs (reliability extension).
	AckReq bool
	// Version selects RoCEv2 (default) or RoCEv1 encapsulation.
	Version wire.RoCEVersion
}

// Establish sets up an RDMA channel to memory server mem: the control-plane
// handshake of the paper's Figure 2.
func (tb *Testbed) Establish(mem int, spec ChannelSpec) (*core.Channel, error) {
	if mem < 0 || mem >= len(tb.MemNICs) {
		return nil, fmt.Errorf("gem: no memory server %d", mem)
	}
	base := spec.RegionBase
	if base == 0 {
		base = 0x10000000
	}
	ch, err := tb.Controller.Establish(core.ChannelSpec{
		SwitchPort: tb.SwitchPortOfMem(mem),
		NIC:        tb.MemNICs[mem],
		RegionBase: base,
		RegionSize: spec.RegionSize,
		Mode:       spec.Mode,
		AckReq:     spec.AckReq,
		Version:    spec.Version,
	})
	if err != nil {
		return nil, err
	}
	if tb.chanNIC == nil {
		tb.chanNIC = make(map[uint32]*rnic.NIC)
	}
	tb.chanNIC[ch.ID] = tb.MemNICs[mem]
	tb.chans = append(tb.chans, ch)
	return ch, nil
}

// SetPipeline installs the switch program. The dispatcher runs first so
// RDMA responses reach their primitives; fn sees everything else.
func (tb *Testbed) SetPipeline(fn func(ctx *Context)) {
	tb.Switch.Pipeline = switchsim.PipelineFunc(func(ctx *switchsim.Context) {
		if tb.Dispatcher.Dispatch(ctx) {
			return
		}
		fn(ctx)
	})
}

// Run drives the simulation until no events remain.
func (tb *Testbed) Run() { tb.Engine.Run() }

// RunFor drives the simulation for d of virtual time.
func (tb *Testbed) RunFor(d Duration) { tb.Engine.RunFor(d) }

// Now returns the current virtual time.
func (tb *Testbed) Now() Time { return tb.Engine.Now() }

// PendingEvents reports events still waiting to run (the quiesce check the
// experiments assert on).
func (tb *Testbed) PendingEvents() int { return tb.Engine.Pending() }

// SendFrame injects a raw frame from host i toward the switch.
func (tb *Testbed) SendFrame(i int, frame []byte) bool {
	return tb.hostPorts[i].Send(frame)
}

// DataFrame builds a plain UDP test frame between two testbed hosts.
func (tb *Testbed) DataFrame(src, dst int, frameLen int, srcPort, dstPort uint16) []byte {
	s, d := tb.Hosts[src], tb.Hosts[dst]
	return wire.BuildDataFrame(s.MAC, d.MAC, s.IP, d.IP, srcPort, dstPort, frameLen, nil)
}

// ServerCPUOps sums software packet-handling operations across all memory
// servers — the number the paper's "0% CPU overhead" claim is about.
func (tb *Testbed) ServerCPUOps() int64 {
	var total int64
	for _, h := range tb.MemHosts {
		total += h.CPUOps
	}
	return total
}

// ReadRemoteCounter reads the 8-byte counter at offset in ch's region
// directly from server DRAM (operator-side estimation path).
func (tb *Testbed) ReadRemoteCounter(ch *Channel, offset int) (uint64, error) {
	if nic := tb.chanNIC[ch.ID]; nic != nil {
		return nic.ReadCounter(ch.RKey, ch.Base+uint64(offset))
	}
	// Channels established outside the facade: fall back to the RKey scan
	// (unambiguous on single-server testbeds).
	for _, nic := range tb.MemNICs {
		if r := nic.LookupRegion(ch.RKey); r != nil {
			return nic.ReadCounter(ch.RKey, ch.Base+uint64(offset))
		}
	}
	return 0, fmt.Errorf("gem: channel region not found")
}

// NewScrubber builds an anti-entropy scrubber comparing length bytes at
// offset of primary's region against the same window of replica's, and
// registers it so Stats reports its work. The scrubber reads and repairs
// both regions through their data path, so it sees exactly what RDMA
// readers would, crash wipes included. Call Start on the result.
func (tb *Testbed) NewScrubber(primary, replica *Channel, offset, length int, cfg ScrubConfig) (*Scrubber, error) {
	pr, rr := tb.Region(primary), tb.Region(replica)
	if pr == nil || rr == nil {
		return nil, fmt.Errorf("gem: scrubber channel region not found")
	}
	if offset < 0 || length <= 0 || offset+length > pr.Size || offset+length > rr.Size {
		return nil, fmt.Errorf("gem: scrub window [%d,%d) outside regions (%d/%d bytes)",
			offset, offset+length, pr.Size, rr.Size)
	}
	sc := core.NewScrubber(tb.Engine, pr, rr, offset, length, cfg)
	tb.scrubbers = append(tb.scrubbers, sc)
	return sc, nil
}

// Region returns the backing DRAM of ch's region for server-side setup
// (e.g. populating lookup entries) and verification.
func (tb *Testbed) Region(ch *Channel) *rnic.Region {
	if nic := tb.chanNIC[ch.ID]; nic != nil {
		return nic.LookupRegion(ch.RKey)
	}
	for _, nic := range tb.MemNICs {
		if r := nic.LookupRegion(ch.RKey); r != nil {
			return r
		}
	}
	return nil
}
