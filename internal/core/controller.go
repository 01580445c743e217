package core

import (
	"fmt"

	"gem/internal/rnic"
	"gem/internal/switchsim"
	"gem/internal/wire"
)

// Controller is the RDMA channel controller: the only component that runs
// on CPUs (switch control plane + server), and only at initialization. It
// allocates and registers memory regions on a server's RNIC, creates the
// queue pair, and installs the channel information — QPN, rkey, base
// address — into the switch data plane, exactly the split described in §3
// of the paper.
type Controller struct {
	sw     *switchsim.Switch
	nextID uint32

	// SetupOps counts control-plane operations, so harnesses can show
	// that CPU involvement exists only at setup time.
	SetupOps int64
}

// NewController returns a controller for switch sw.
func NewController(sw *switchsim.Switch) *Controller {
	return &Controller{sw: sw, nextID: 0x100}
}

// ChannelSpec describes a channel to establish.
type ChannelSpec struct {
	// SwitchPort is the switch port the memory server's NIC hangs off.
	SwitchPort int
	// NIC is the memory server's RNIC.
	NIC *rnic.NIC
	// RegionBase and RegionSize define the DRAM to reserve and register.
	RegionBase uint64
	RegionSize int
	// Mode selects the responder's PSN policy. The paper's prototype
	// needs rnic.PSNTolerant (the switch does not retransmit); the
	// reliability extension uses rnic.PSNStrict.
	Mode rnic.PSNMode
	// AckReq requests per-operation ACKs from the NIC (reliability
	// extension); the base prototype leaves it false.
	AckReq bool
	// Version selects the wire encapsulation (RoCEv2 default).
	Version wire.RoCEVersion
}

// Establish performs the control-plane handshake of Figure 2: register the
// region, create the QP, exchange addressing, and hand the data plane a
// ready Channel.
func (c *Controller) Establish(spec ChannelSpec) (*Channel, error) {
	if spec.NIC == nil {
		return nil, fmt.Errorf("core: channel spec has no NIC")
	}
	if spec.RegionSize <= 0 {
		return nil, fmt.Errorf("core: channel region size %d", spec.RegionSize)
	}
	// Server side: allocate DRAM, register it with the RNIC, create QP.
	// These are the only CPU instructions the memory service ever costs.
	region := spec.NIC.RegisterMemory(spec.RegionBase, spec.RegionSize)
	c.SetupOps++
	qp := spec.NIC.CreateQP(spec.Mode)
	c.SetupOps++

	// Switch side: allocate channel registers, install remote info.
	ch, err := newChannel(c.sw, c.nextID, spec.SwitchPort)
	if err != nil {
		return nil, err
	}
	c.nextID++
	ch.PeerMAC = spec.NIC.MAC
	ch.PeerIP = spec.NIC.IP
	ch.PeerQPN = qp.Number
	ch.RKey = region.RKey
	ch.Base = region.Base
	ch.Size = spec.RegionSize
	ch.MTU = spec.NIC.Cfg.MTU
	ch.AckReq = spec.AckReq
	ch.Version = spec.Version

	// Tell the NIC where responses go.
	qp.PeerMAC = SwitchMAC
	qp.PeerIP = SwitchIP
	qp.PeerQPN = ch.ID
	qp.Version = spec.Version
	c.SetupOps++
	return ch, nil
}
