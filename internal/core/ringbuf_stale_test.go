package core

import (
	"math/rand"
	"testing"

	"gem/internal/rnic"
	"gem/internal/sim"
	"gem/internal/switchsim"
)

// delayOnce is a fault injector that holds back the first frame it sees by
// a fixed extra delay and passes everything after untouched.
type delayOnce struct {
	delay sim.Duration
	used  bool
}

func (d *delayOnce) Transmit(_ sim.Time, _ *rand.Rand, _ []byte) (bool, sim.Duration) {
	if d.used {
		return false, 0
	}
	d.used = true
	return false, d.delay
}

// TestPacketBufferStaleResponseAfterRetry delays a READ response past
// readTimeout so the entry is re-issued under a fresh PSN — the retry
// cancels the original outstanding record. When the original response
// finally lands it must be counted in StaleResponses and dropped; the
// retried response delivers the frame exactly once, and the entry's read
// credit is released exactly once (the package TestMain's pool audit would
// catch the frame being freed twice).
func TestPacketBufferStaleResponseAfterRetry(t *testing.T) {
	b := newBed(t, 3, switchsim.Config{BufferBytes: 128 << 10}, rnic.Config{MTU: 4096})
	ch := b.establish(t, 64*2048, rnic.PSNTolerant, false)
	pb, err := NewPacketBuffer([]*Channel{ch}, 2, PacketBufferConfig{
		HighWaterBytes: 1, LowWaterBytes: 256 << 10, // store-and-load everything
	})
	if err != nil {
		t.Fatal(err)
	}
	pb.RegisterWith(b.disp)
	b.sw.Hooks = pb
	b.sw.Pipeline = switchsim.PipelineFunc(func(ctx *switchsim.Context) {
		if b.disp.Dispatch(ctx) {
			return
		}
		if ctx.Pkt == nil {
			ctx.Drop()
			return
		}
		pb.Admit(ctx, ctx.Frame)
	})
	// The NIC's first transmission is the READ response for entry 0 (spill
	// WRITEs are unacked in PSN-tolerant mode): hold it back well past
	// readTimeout, so exactly one retry fires before it arrives.
	b.memNIC.Port().SetFaultInjector(&delayOnce{delay: readTimeout * 3 / 2})

	b.net.Ports(b.hosts[0])[0].Send(dataFrame(b.hosts[0], b.hosts[2], 1500, 1))
	b.net.Engine.Run()

	if pb.Stats.Stored != 1 || pb.Stats.Loaded != 1 {
		t.Fatalf("stored %d loaded %d, want 1/1 (stats %+v)",
			pb.Stats.Stored, pb.Stats.Loaded, pb.Stats)
	}
	if pb.Stats.ReadRetries != 1 {
		t.Fatalf("ReadRetries = %d, want exactly 1", pb.Stats.ReadRetries)
	}
	if pb.Stats.StaleResponses != 1 {
		t.Fatalf("StaleResponses = %d, want 1 (the delayed original)", pb.Stats.StaleResponses)
	}
	if got := b.hosts[2].Received; got != 1 {
		t.Fatalf("receiver got %d frames, want exactly 1", got)
	}
	cr := pb.ShardCredits(0)
	if cr.Outstanding() != 0 {
		t.Fatalf("credit leaked: outstanding %d after drain", cr.Outstanding())
	}
	if cr.Stats.Acquired != 1 || cr.Stats.Released != 1 {
		t.Fatalf("credit accounting %d acquired / %d released, want 1/1 (retry reuses, stale ignored)",
			cr.Stats.Acquired, cr.Stats.Released)
	}
}
