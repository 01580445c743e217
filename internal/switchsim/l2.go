package switchsim

import "gem/internal/wire"

// L2Pipeline is the paper's baseline "simple P4 implementation of an L2
// switch without doing anything special": exact match on destination MAC,
// flood on miss.
type L2Pipeline struct {
	FIB *ExactTable[wire.MAC, int]
}

// NewL2Pipeline allocates the forwarding table (capacity MACs) from the
// switch's SRAM budget.
func NewL2Pipeline(sw *Switch, capacity int) (*L2Pipeline, error) {
	// 6B MAC + 2B port + overhead ≈ 16B/entry, the usual FIB cost.
	fib, err := NewExactTable[wire.MAC, int](sw.SRAM, "l2-fib", capacity, 16)
	if err != nil {
		return nil, err
	}
	return &L2Pipeline{FIB: fib}, nil
}

// Learn installs a static MAC→port mapping (control-plane action).
func (l *L2Pipeline) Learn(mac wire.MAC, port int) error { return l.FIB.Insert(mac, port) }

// Ingress implements Pipeline.
func (l *L2Pipeline) Ingress(ctx *Context) {
	if ctx.Pkt == nil {
		ctx.Drop()
		return
	}
	if out, ok := l.FIB.Lookup(ctx.Pkt.Eth.Dst); ok {
		if out == ctx.InPort {
			ctx.Drop() // never hairpin back out the ingress port
			return
		}
		ctx.Emit(out, ctx.Frame)
		return
	}
	// Flood on miss. Emit transfers ownership of its buffer to the traffic
	// manager, which recycles it independently per port, so clones must be
	// distinct buffers: every flooded port but the last gets a pooled copy
	// and only the last gets the original. Copies are cut before the
	// original is emitted so a tail drop cannot recycle the source
	// mid-flood.
	last := -1
	for p := ctx.Switch().NumPorts() - 1; p >= 0; p-- {
		if p != ctx.InPort {
			last = p
			break
		}
	}
	if last < 0 {
		return // no eligible egress port; the switch recycles the frame
	}
	for p := 0; p <= last; p++ {
		if p == ctx.InPort {
			continue
		}
		f := ctx.Frame
		if p != last {
			f = wire.DefaultPool.Clone(ctx.Frame)
		}
		ctx.Emit(p, f)
	}
}
