// Package faults is the deterministic fault-injection layer for the chaos
// experiments (E9): everything §7 of the paper defers under "handling switch
// and server failures" that the happy path never exercises — bursty loss,
// bit corruption, latency jitter and spikes, scheduled link flaps, and
// server crash/slow/restart schedules.
//
// Every probabilistic model draws exclusively from the *rand.Rand the sim
// engine hands it (netsim.FaultInjector contract), so a run with a given
// seed replays byte-identically — the property the gem-bench parallel runner
// and the E9 reproducibility invariant depend on. Scheduled faults (flaps,
// server events) are pure functions of virtual time and use no randomness
// at all.
package faults

import (
	"math/rand"

	"gem/internal/sim"
)

// GilbertElliott is the classic two-state bursty loss model: a Good state
// with low loss and a Bad state with high loss, with per-frame transition
// probabilities. It reproduces the correlated loss bursts real links show
// (which Bernoulli LossRate cannot), the worst case for go-back-N recovery.
type GilbertElliott struct {
	// PGoodToBad and PBadToGood are the per-frame transition probabilities.
	PGoodToBad, PBadToGood float64
	// LossGood and LossBad are the per-frame loss probabilities in each state.
	LossGood, LossBad float64

	bad bool

	// Drops counts frames lost to the model; BadFrames counts frames that
	// transited while the link was in the Bad state.
	Drops     int64
	BadFrames int64
}

// lose advances the chain one frame and reports whether it is lost.
func (g *GilbertElliott) lose(rng *rand.Rand) bool {
	if g.bad {
		if rng.Float64() < g.PBadToGood {
			g.bad = false
		}
	} else if rng.Float64() < g.PGoodToBad {
		g.bad = true
	}
	p := g.LossGood
	if g.bad {
		g.BadFrames++
		p = g.LossBad
	}
	if p > 0 && rng.Float64() < p {
		g.Drops++
		return true
	}
	return false
}

// Corruptor flips random bits in transiting frames. A flipped bit anywhere
// past the Ethernet header invalidates the RoCE ICRC, so the receiving NIC
// (Stats.BadICRC) or the switch dispatcher silently discards the frame —
// corruption degenerates to loss only after the integrity check actually
// runs, which is exactly the path this model exists to exercise.
type Corruptor struct {
	// Rate is the per-frame corruption probability.
	Rate float64
	// MaxBits bounds how many bits one corruption event flips (default 1).
	MaxBits int

	// Corrupted counts frames whose bits were flipped.
	Corrupted int64
}

// corrupt possibly mutates frame in place and reports whether it did.
func (c *Corruptor) corrupt(rng *rand.Rand, frame []byte) bool {
	if c.Rate <= 0 || len(frame) == 0 || rng.Float64() >= c.Rate {
		return false
	}
	bits := 1
	if c.MaxBits > 1 {
		bits = 1 + rng.Intn(c.MaxBits)
	}
	for i := 0; i < bits; i++ {
		bit := rng.Intn(len(frame) * 8)
		frame[bit/8] ^= 1 << (bit % 8)
	}
	c.Corrupted++
	return true
}

// Jitter adds delivery-latency noise: a uniform jitter on every frame plus
// occasional large spikes (e.g. a 1 ms cross-traffic stall). Delays are
// added to the link's propagation per frame, so a spike can reorder frames —
// as it does on real fabrics.
type Jitter struct {
	// Max is the uniform per-frame jitter bound (0 disables).
	Max sim.Duration
	// SpikeRate is the per-frame probability of a latency spike.
	SpikeRate float64
	// Spike is the added delay of one spike.
	Spike sim.Duration

	// Spikes counts spike events.
	Spikes int64
}

// delay returns the extra delivery delay for one frame.
func (j *Jitter) delay(rng *rand.Rand) sim.Duration {
	var d sim.Duration
	if j.Max > 0 {
		d = sim.Duration(rng.Int63n(int64(j.Max) + 1))
	}
	if j.SpikeRate > 0 && rng.Float64() < j.SpikeRate {
		d += j.Spike
		j.Spikes++
	}
	return d
}

// FlapWindow is one scheduled link outage: every frame whose serialization
// completes in [Start, End) is dropped.
type FlapWindow struct {
	Start, End sim.Time
}

// LinkFaults composes the per-link fault models into one
// netsim.FaultInjector. Any field may be nil/empty; the zero value injects
// nothing. One LinkFaults instance serves one link direction (the models
// carry state); build two for a symmetric link.
type LinkFaults struct {
	Loss    *GilbertElliott
	Corrupt *Corruptor
	Jitter  *Jitter
	Flaps   []FlapWindow

	// FlapDrops counts frames lost to flap windows.
	FlapDrops int64
}

// Transmit implements netsim.FaultInjector.
func (l *LinkFaults) Transmit(now sim.Time, rng *rand.Rand, frame []byte) (bool, sim.Duration) {
	for _, w := range l.Flaps {
		if now >= w.Start && now < w.End {
			l.FlapDrops++
			return true, 0
		}
	}
	if l.Loss != nil && l.Loss.lose(rng) {
		return true, 0
	}
	if l.Corrupt != nil {
		l.Corrupt.corrupt(rng, frame)
	}
	var extra sim.Duration
	if l.Jitter != nil {
		extra = l.Jitter.delay(rng)
	}
	return false, extra
}
