package verbs

// Credit-based admission control for RDMA channels.
//
// An RNIC advertises a hard limit on the one-sided operations it can hold in
// flight per QP (responder resources); the switch must throttle to it — the
// paper's state store already did this with an ad-hoc counter, but the ring
// buffer and lookup table issued READs and WRITEs with no admission control
// at all. Credits is the shared mechanism: a window of outstanding
// operations with low-watermark hysteresis, so a primitive stops
// issuing *before* the RNIC or the memory link saturates and resumes only
// after real drain, instead of oscillating around the limit one op at a
// time.

// CreditConfig tunes a credit window.
type CreditConfig struct {
	// Window is the maximum outstanding operations (READs, WRITEs or
	// atomics the primitive tracks) on the channel. Reaching it gates the
	// window: new acquires are refused. 0 = 16, a CX-3 Pro's responder
	// resources.
	Window int
	// Low is the gate-release watermark: a gated window reopens only when
	// outstanding drains to Low. 0 = Window-1, which reproduces the classic
	// "issue whenever a slot is free" window with no hysteresis gap.
	Low int
	// Unlimited disables refusal entirely while keeping the accounting — a
	// test-only ablation switch that turns the window into a pure observer
	// so experiments can demonstrate the unbounded-growth baseline.
	Unlimited bool
}

func (c *CreditConfig) fillDefaults() {
	if c.Window <= 0 {
		c.Window = 16
	}
	if c.Low <= 0 || c.Low >= c.Window {
		c.Low = c.Window - 1
	}
}

// CreditStats are the window's observable counters.
type CreditStats struct {
	Acquired    int64 // credits granted
	Refused     int64 // acquires refused (gated or window full)
	Released    int64 // credits returned
	GateEntries int64 // times reaching Window engaged the gate
	GateExits   int64 // times drain to the low watermark released it
	Peak        int64 // maximum outstanding ever observed
}

// Credits is one channel's admission window. It is not safe for concurrent
// use; the simulation is single-threaded per engine.
type Credits struct {
	cfg         CreditConfig
	outstanding int
	gated       bool

	Stats CreditStats
}

// NewCredits returns a credit window for cfg.
func NewCredits(cfg CreditConfig) *Credits {
	cfg.fillDefaults()
	return &Credits{cfg: cfg}
}

// Config returns the effective configuration.
func (c *Credits) Config() CreditConfig { return c.cfg }

// Outstanding reports currently held credits.
func (c *Credits) Outstanding() int { return c.outstanding }

// CanAcquire reports whether an Acquire would succeed, without counting a
// refusal. Issue loops use it as their continuation condition.
func (c *Credits) CanAcquire() bool {
	if c.cfg.Unlimited {
		return true
	}
	return !c.gated && c.outstanding < c.cfg.Window
}

// Acquire consumes one credit unconditionally — the caller has already
// checked CanAcquire (single-threaded engine, so the answer holds). Reaching
// Window engages the gate.
func (c *Credits) Acquire() {
	c.outstanding++
	c.Stats.Acquired++
	if int64(c.outstanding) > c.Stats.Peak {
		c.Stats.Peak = int64(c.outstanding)
	}
	if !c.cfg.Unlimited && !c.gated && c.outstanding >= c.cfg.Window {
		c.gated = true
		c.Stats.GateEntries++
	}
}

// TryAcquire attempts to take one credit, counting a refusal when the window
// is gated or full.
func (c *Credits) TryAcquire() bool {
	if !c.CanAcquire() {
		c.Stats.Refused++
		return false
	}
	c.Acquire()
	return true
}

// Release returns one credit; draining to the low watermark reopens a gated
// window. Spurious releases (stale responses after a reap) are ignored.
func (c *Credits) Release() {
	if c.outstanding <= 0 {
		return
	}
	c.outstanding--
	c.Stats.Released++
	if c.gated && c.outstanding <= c.cfg.Low {
		c.gated = false
		c.Stats.GateExits++
	}
}
