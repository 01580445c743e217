package wire

import "testing"

// These tests pin the paper's §4 numbers: "RoCEv2 protocol adds 40 bytes
// (52 bytes in the case of RoCEv1) of headers ... in addition to an RDMA
// operation-specific header of 16 (WRITE/READ) or 28 bytes (Fetch-and-Add)."
func TestPaperOverheadNumbers(t *testing.T) {
	if got := TransportOverhead(RoCEv2); got != 40 {
		t.Fatalf("RoCEv2 transport overhead = %d, want 40", got)
	}
	if got := TransportOverhead(RoCEv1); got != 52 {
		t.Fatalf("RoCEv1 transport overhead = %d, want 52", got)
	}
	if got := ExtHeaderOverhead(OpClassWrite); got != 16 {
		t.Fatalf("WRITE ext overhead = %d, want 16", got)
	}
	if got := ExtHeaderOverhead(OpClassRead); got != 16 {
		t.Fatalf("READ ext overhead = %d, want 16", got)
	}
	if got := ExtHeaderOverhead(OpClassFetchAdd); got != 28 {
		t.Fatalf("FAA ext overhead = %d, want 28", got)
	}
	if got := PaperOverhead(RoCEv2, OpClassFetchAdd); got != 68 {
		t.Fatalf("RoCEv2 FAA overhead = %d, want 68", got)
	}
	if got := PaperOverhead(RoCEv1, OpClassWrite); got != 68 {
		t.Fatalf("RoCEv1 WRITE overhead = %d, want 68", got)
	}
}

// The overhead accounting must agree with what the codecs actually emit.
func TestOverheadMatchesEncodedFrames(t *testing.T) {
	p := testParams()
	payload := make([]byte, 333)

	wf := BuildWriteOnlyInto(DefaultPool, p, 0, 1, payload)
	if got, want := len(wf)-len(payload), FullWireOverhead(RoCEv2, OpClassWrite); got != want {
		t.Fatalf("encoded WRITE overhead = %d, accounting says %d", got, want)
	}
	rf := BuildReadRequest(p, 0, 1, 64)
	if got, want := len(rf), FullWireOverhead(RoCEv2, OpClassRead); got != want {
		t.Fatalf("encoded READ request = %d bytes, accounting says %d", got, want)
	}
	af := BuildFetchAdd(p, 0, 1, 1)
	if got, want := len(af), FullWireOverhead(RoCEv2, OpClassFetchAdd); got != want {
		t.Fatalf("encoded FAA request = %d bytes, accounting says %d", got, want)
	}
}

func TestBandwidthExpansionShape(t *testing.T) {
	// Expansion must decrease with packet size and exceed 1 always.
	prev := 100.0
	for _, size := range []int{64, 128, 256, 512, 1024, 1500} {
		e := BandwidthExpansion(RoCEv2, size)
		if e <= 1 {
			t.Fatalf("expansion at %dB = %v, want > 1", size, e)
		}
		if e >= prev {
			t.Fatalf("expansion not decreasing at %dB: %v >= %v", size, e, prev)
		}
		prev = e
	}
	// v1 overhead strictly worse than v2.
	if BandwidthExpansion(RoCEv1, 256) <= BandwidthExpansion(RoCEv2, 256) {
		t.Fatal("RoCEv1 should expand more than RoCEv2")
	}
}
