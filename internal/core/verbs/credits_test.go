package verbs

import "testing"

func TestCreditDefaults(t *testing.T) {
	c := NewCredits(CreditConfig{})
	cfg := c.Config()
	if cfg.Window != 16 || cfg.Low != 15 {
		t.Fatalf("zero config resolved to %+v, want Window=16 Low=15", cfg)
	}
	c2 := NewCredits(CreditConfig{Window: 4})
	if got := c2.Config(); got.Low != 3 {
		t.Fatalf("Window=4 resolved to %+v, want Low=3", got)
	}
	// Low >= Window is nonsense; it collapses to the legacy Window-1.
	c3 := NewCredits(CreditConfig{Window: 6, Low: 7})
	if got := c3.Config(); got.Low != 5 {
		t.Fatalf("Low>=Window resolved to Low=%d, want 5", got.Low)
	}
}

// TestCreditWindow checks the plain window with the default watermark
// (Low=Window-1): refusal at the cap, readmission one release
// later — exactly the legacy outstanding counter's behavior.
func TestCreditWindow(t *testing.T) {
	c := NewCredits(CreditConfig{Window: 2})
	if !c.TryAcquire() || !c.TryAcquire() {
		t.Fatal("window of 2 refused before cap")
	}
	if c.TryAcquire() {
		t.Fatal("acquired past window")
	}
	if c.Stats.Refused != 1 {
		t.Fatalf("Refused = %d, want 1", c.Stats.Refused)
	}
	c.Release()
	if !c.CanAcquire() || !c.TryAcquire() {
		t.Fatal("release did not readmit")
	}
	if c.Stats.Peak != 2 {
		t.Fatalf("Peak = %d, want 2", c.Stats.Peak)
	}
}

// TestCreditHysteresis checks the watermark gate: once Outstanding reaches
// Window the gate closes and stays closed until Outstanding drains to Low,
// preventing admit/refuse oscillation at the boundary.
func TestCreditHysteresis(t *testing.T) {
	c := NewCredits(CreditConfig{Window: 6, Low: 2})
	for i := 0; i < 6; i++ {
		if !c.TryAcquire() {
			t.Fatalf("refused below Window at %d", i)
		}
	}
	if !c.gated || c.TryAcquire() {
		t.Fatal("gate did not close at Window")
	}
	// Draining to Low-1=1 must pass through 5,4,3,2 still gated.
	for i := 0; i < 3; i++ {
		c.Release()
		if !c.gated {
			t.Fatalf("gate reopened early at outstanding=%d", c.Outstanding())
		}
	}
	c.Release() // outstanding 2 == Low: reopen
	if c.gated || !c.CanAcquire() {
		t.Fatal("gate did not reopen at Low")
	}
	if c.Stats.GateEntries != 1 || c.Stats.GateExits != 1 {
		t.Fatalf("gate counters %d/%d, want 1/1", c.Stats.GateEntries, c.Stats.GateExits)
	}
}

// TestCreditUnlimited checks the ablation switch: accounting continues
// (Peak, Acquired) but nothing is ever refused.
func TestCreditUnlimited(t *testing.T) {
	c := NewCredits(CreditConfig{Window: 2, Unlimited: true})
	for i := 0; i < 10; i++ {
		if !c.TryAcquire() {
			t.Fatalf("unlimited window refused at %d", i)
		}
	}
	if c.Stats.Peak != 10 || c.Stats.Refused != 0 {
		t.Fatalf("unlimited stats: peak %d refused %d, want 10/0", c.Stats.Peak, c.Stats.Refused)
	}
}

// TestCreditSpuriousRelease checks that a release with nothing outstanding
// (e.g. a duplicate response after the timeout reaper already released) is
// ignored rather than driving the counter negative.
func TestCreditSpuriousRelease(t *testing.T) {
	c := NewCredits(CreditConfig{Window: 2})
	c.Release()
	if c.Outstanding() != 0 {
		t.Fatalf("outstanding went negative: %d", c.Outstanding())
	}
	c.Acquire()
	c.Release()
	c.Release()
	if c.Outstanding() != 0 || c.Stats.Released != 1 {
		t.Fatalf("spurious release counted: outstanding %d released %d",
			c.Outstanding(), c.Stats.Released)
	}
}

// TestPostReadRefusedByEndpointReturnsCredit: a CreditTry READ takes its
// credit before the endpoint sees the request. When the endpoint refuses it
// (egress full) the credit must come back, or each refusal shrinks the
// window for good.
func TestPostReadRefusedByEndpointReturnsCredit(t *testing.T) {
	cr := NewCredits(CreditConfig{Window: 4})
	q := NewQP(&fakeEndpoint{fail: true}, cr, QPConfig{})
	if q.PostRead(1, 0, 64, 1, CreditTry) {
		t.Fatal("READ posted through a refusing endpoint")
	}
	if n := cr.Outstanding(); n != 0 {
		t.Fatalf("refused READ holds %d credits", n)
	}
}
