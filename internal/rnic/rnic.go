// Package rnic models a commodity RDMA NIC speaking RoCEv2, the device the
// paper's switch talks to: memory regions protected by rkeys, queue pairs
// with PSN state, and a one-sided-operation engine that executes RDMA
// WRITE / READ / atomic Fetch-and-Add entirely on the NIC — the host CPU is
// never involved, which is the property the paper's architecture rests on.
//
// The model is calibrated to a Mellanox ConnectX-3 Pro class 40 GbE part
// (the paper's testbed NIC): finite inbound processing capacity for WRITEs,
// finite READ-response generation rate, and a hard atomic-operation rate
// ceiling. Exceeding the ceilings overflows the receive ring and drops
// requests, reproducing the "RDMA requests were occasionally dropped at the
// NIC" behaviour the paper reports beyond 34.1 Gbps.
package rnic

import (
	"math/bits"

	"gem/internal/sim"
)

// Config holds the NIC's performance envelope and protocol parameters.
type Config struct {
	// MTU is the path MTU used to segment READ responses and requester
	// WRITEs, in bytes of RDMA payload per packet.
	MTU int
	// WritePayloadBps caps the rate at which inbound WRITE payload can be
	// committed to host memory (PCIe/DMA path), bits per second.
	WritePayloadBps float64
	// ReadPayloadBps caps the rate at which READ response payload can be
	// fetched from host memory, bits per second.
	ReadPayloadBps float64
	// AtomicOpsPerSec caps atomic (Fetch-and-Add / Compare-and-Swap)
	// execution; CX-3-class parts sustain on the order of 1e6/s.
	AtomicOpsPerSec float64
	// RxRing bounds the number of requests queued for execution; arrivals
	// beyond it are dropped (and counted), like a real NIC's RX ring.
	RxRing int
	// EnablePFC makes the NIC emit 802.1Qbb pause frames when an RX ring
	// nears capacity and resume frames when it drains — the §7 mitigation
	// for RDMA packet drops. Thresholds derive from RxRing (pause at 3/4,
	// resume at 1/4).
	EnablePFC bool
}

// processingDelay is the fixed per-operation latency through the NIC.
const processingDelay = 600 * sim.Nanosecond

// DefaultConfig returns the CX-3 Pro-like calibration used by the
// experiments (see DESIGN.md §5 for the derivation from the paper's
// numbers).
func DefaultConfig() Config {
	return Config{
		MTU:             1024,
		WritePayloadBps: 34.5e9,
		ReadPayloadBps:  37.8e9,
		AtomicOpsPerSec: 1.29e6,
		RxRing:          512,
	}
}

func (c *Config) fillDefaults() {
	d := DefaultConfig()
	if c.MTU == 0 {
		c.MTU = d.MTU
	}
	if c.WritePayloadBps == 0 {
		c.WritePayloadBps = d.WritePayloadBps
	}
	if c.ReadPayloadBps == 0 {
		c.ReadPayloadBps = d.ReadPayloadBps
	}
	if c.AtomicOpsPerSec == 0 {
		c.AtomicOpsPerSec = d.AtomicOpsPerSec
	}
	if c.RxRing == 0 {
		c.RxRing = d.RxRing
	}
}

// Region is a registered memory region: a chunk of the host's DRAM exposed
// for remote access under an rkey.
//
// The backing "DRAM" is allocated where it is touched, the way untouched
// anonymous pages cost a real server nothing: registering costs no memory,
// the NIC's data path (ReadAt, WriteAt) faults in regionPage-sized pages,
// and the control plane's whole-region view (Bytes) folds the region into
// one contiguous page. Untouched bytes read as zero either way.
type Region struct {
	RKey uint32
	Base uint64 // virtual address of the first byte
	Size int    // bytes registered

	// pages[i] backs offsets [i<<shift, (i+1)<<shift) for shift =
	// regionPageShift+grow; the table and each page are nil until touched.
	// grow is zero until Bytes raises it to make one page of the region.
	pages [][]byte
	grow  uint
}

// regionPageShift sets the granularity of data-path allocation: 64 KB.
const regionPageShift = 16

// Contains reports whether [va, va+n) lies inside the region.
func (r *Region) Contains(va uint64, n int) bool {
	if va < r.Base {
		return false
	}
	off := va - r.Base
	return off <= uint64(r.Size) && uint64(n) <= uint64(r.Size)-off
}

// Bytes returns the whole region as one contiguous slice, for control-plane
// set-up and verification (populating a table, scrubbing, asserting). The
// region stays contiguous from then on.
func (r *Region) Bytes() []byte {
	if len(r.pages) == 1 && len(r.pages[0]) == r.Size {
		return r.pages[0]
	}
	all := make([]byte, r.Size)
	for i, p := range r.pages {
		copy(all[i<<(regionPageShift+r.grow):], p)
	}
	r.pages, r.grow = [][]byte{all}, uint(max(0, bits.Len(uint(r.Size))-regionPageShift))
	return all
}

// locate maps offset off to the index of the page holding it, that page
// (nil if untouched), the offset inside it, and how many bytes the page has
// from there on.
func (r *Region) locate(off int) (i int, page []byte, lo, room int) {
	shift := regionPageShift + r.grow
	i, lo = off>>shift, off&(1<<shift-1)
	if r.pages != nil {
		page = r.pages[i]
	}
	return i, page, lo, min(1<<shift, r.Size-i<<shift) - lo
}

// resident returns the region's own bytes for offsets [off, off+n) when one
// touched page holds them all, else nil.
func (r *Region) resident(off, n int) []byte {
	if n == 0 {
		return []byte{} // a zero-length READ may sit at the very end
	}
	_, page, lo, room := r.locate(off)
	if page == nil || n > room {
		return nil
	}
	return page[lo : lo+n]
}

// ReadAt copies the bytes at [va, va+len(dst)) into dst; reading allocates
// nothing. Caller must have checked Contains.
func (r *Region) ReadAt(dst []byte, va uint64) {
	for off := int(va - r.Base); len(dst) > 0; {
		_, page, lo, room := r.locate(off)
		n := min(len(dst), room)
		if page == nil {
			clear(dst[:n])
		} else {
			copy(dst[:n], page[lo:])
		}
		dst, off = dst[n:], off+n
	}
}

// WriteAt copies src to [va, va+len(src)), allocating the pages it touches.
// Caller must have checked Contains.
func (r *Region) WriteAt(src []byte, va uint64) {
	if r.pages == nil {
		r.pages = make([][]byte, (r.Size+1<<regionPageShift-1)>>regionPageShift)
	}
	for off := int(va - r.Base); len(src) > 0; {
		i, page, lo, room := r.locate(off)
		if page == nil {
			page = make([]byte, lo+room)
			r.pages[i] = page
		}
		n := copy(page[lo:], src)
		src, off = src[n:], off+n
	}
}

// Stats aggregates the NIC's observable behaviour for the harnesses.
type Stats struct {
	ExecWrites      int64 // WRITE messages committed
	ExecReads       int64 // READ requests served
	ExecAtomics     int64 // atomics executed
	WriteBytes      int64 // payload bytes committed by WRITEs
	ReadBytes       int64 // payload bytes returned by READs
	RxRingDrops     int64 // requests dropped at a full RX ring
	AccessErrors    int64 // rkey/bounds failures (NAK remote access)
	SeqGaps         int64 // PSN gaps observed (lost requests upstream)
	DupRequests     int64 // stale duplicates discarded
	BadICRC         int64 // frames dropped for ICRC mismatch
	AcksSent        int64
	NaksSent        int64
	ResponsesSent   int64 // READ response + atomic ack packets
	MalformedFrames int64
	PFCPauses       int64 // pause frames emitted (EnablePFC)
	PFCResumes      int64 // resume frames emitted
	// DroppedWhileFailed counts frames that arrived at a crashed server.
	DroppedWhileFailed int64
}
