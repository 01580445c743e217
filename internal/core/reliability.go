package core

import (
	"fmt"

	"gem/internal/core/verbs"
	"gem/internal/sim"
	"gem/internal/switchsim"
	"gem/internal/wire"
)

// Retransmitter is the §7 reliability extension: "on the switch side, one
// can implement parsing and handling of RDMA ACKs/NACKs to make certain
// remote memory reliable, e.g., in the remote counter case."
//
// It wraps a channel whose QP runs in strict PSN mode with AckReq set,
// keeps a copy of every unacknowledged request frame in switch buffer
// memory, and retransmits go-back-N style on a NAK or a timeout. Combined
// with the RNIC's atomic replay cache this makes remote counters exact even
// across packet loss on the memory link (experiment E8c).
//
// Recovery is bounded and adaptive: with EnableAdaptiveRTO the retransmit
// timeout tracks the measured RTT (RFC 6298 estimator, Karn's exclusion of
// retransmitted samples) and backs off exponentially up to maxRTO across
// consecutive no-progress timeout rounds. MaxRetries caps those rounds;
// when the budget is spent the retransmitter goes quiet and fires
// OnExhausted exactly once, so a Failover can escalate instead of the
// switch hammering a dead server forever (experiment E9).
type Retransmitter struct {
	ch *Channel
	sw *switchsim.Switch

	// Timeout before unacknowledged requests are resent. With the adaptive
	// RTO it only seeds the timer until the first RTT sample lands.
	Timeout sim.Duration
	// Window caps unacknowledged requests in flight.
	Window int

	// adaptiveRTO switches the retransmit timer from fixed Timeout to the
	// RFC 6298 estimator with exponential backoff (EnableAdaptiveRTO). Off
	// by default so existing users keep byte-identical schedules.
	adaptiveRTO bool
	// MaxRetries bounds consecutive timeout rounds without ACK progress
	// before the retransmitter escalates via OnExhausted (0 = unlimited).
	MaxRetries int
	// OnExhausted fires once when MaxRetries is exceeded. The retransmitter
	// stops resending until an ACK retires a frame or Retarget moves the
	// window to a new channel.
	OnExhausted func()
	// CQ, when set, receives typed error completions for transport faults:
	// CQNakPSN/CQNakRKey when the responder NAKs, CQRetryExhausted when the
	// retry budget runs out. This replaces boolean polling as the observable
	// fault surface — a supervisor watches the QP's error stats instead of
	// each engine's flags. Nil keeps the legacy silent behavior.
	CQ *verbs.QP

	srtt, rttvar sim.Duration
	haveSample   bool
	backoff      int
	exhausted    bool

	unacked []relFrame
	timer   *sim.Event

	// Inner receives responses after the retransmitter processes
	// ACK/NAK bookkeeping (e.g. the StateStore consuming atomic ACKs).
	Inner ResponseHandler

	// Stats.
	Retransmits int64
	NaksSeen    int64
	RTTSamples  int64
	Escalations int64
	Retargeted  int64
	// Resyncs counts PSN-stream resynchronizations: a NAK named a PSN below
	// the tracked window (possible only after a Retarget moved those frames
	// to another server), so the stream was rewound to the NIC's expected
	// PSN and the window rebuilt there.
	Resyncs int64
}

type relFrame struct {
	psn    uint32
	frame  []byte
	sentAt sim.Time
	// rexmit marks frames that have been resent at least once; their ACKs
	// are ambiguous (original or retransmission?) and are excluded from RTT
	// sampling per Karn's algorithm.
	rexmit bool
}

// NewRetransmitter wraps channel ch. The channel must have been established
// with AckReq and rnic.PSNStrict for the recovery protocol to be sound.
func NewRetransmitter(ch *Channel, window int) (*Retransmitter, error) {
	if !ch.AckReq {
		return nil, fmt.Errorf("core: retransmitter requires an AckReq channel")
	}
	if window <= 0 {
		window = 16
	}
	return &Retransmitter{
		ch: ch, sw: ch.sw,
		Timeout: 100 * sim.Microsecond,
		Window:  window,
	}, nil
}

// The adaptive timeout's clamps for the simulated fabrics; maxRTO also caps
// the backoff. minRTO sits at ~10× the fabric RTT, mirroring how real stacks
// keep a conservative floor (Linux: 200 ms against ~ms RTTs): with a stable
// RTT the estimator converges to srtt ≈ RTT and anything tighter turns
// ordinary jitter into spurious go-back-N rounds.
const (
	minRTO = 50 * sim.Microsecond
	maxRTO = 5 * sim.Millisecond
)

// EnableAdaptiveRTO turns on the RTT estimator, clamped to [minRTO, maxRTO].
func (r *Retransmitter) EnableAdaptiveRTO() { r.adaptiveRTO = true }

// FetchAdd issues a *reliable* Fetch-and-Add: the request is tracked and
// retransmitted until acknowledged. CanSend gates the caller when the
// retransmit window is full (the RNIC's atomic replay cache depth bounds
// how many atomics may safely be outstanding).
func (r *Retransmitter) FetchAdd(offset int, delta uint64) uint32 {
	psn := r.ch.NextPSN(1)
	va := r.ch.VA(offset, 8)
	p := r.chParams(psn)
	frame := wire.BuildFetchAddInto(wire.DefaultPool, &p, va, r.ch.RKey, delta)
	r.track(psn, frame)
	return psn
}

// CanSend reports whether the retransmit window has room for another
// tracked request.
func (r *Retransmitter) CanSend() bool { return len(r.unacked) < r.Window }

// Exhausted reports whether the retry budget is spent and the retransmitter
// is waiting for an ACK or a Retarget.
func (r *Retransmitter) Exhausted() bool { return r.exhausted }

// BackoffLevel reports the current exponential-backoff level: consecutive
// no-progress timeout rounds (0 when progress is being made). A supervisor
// reads it as an early-warning signal before the retry budget is spent.
func (r *Retransmitter) BackoffLevel() int { return r.backoff }

func (r *Retransmitter) chParams(psn uint32) wire.RoCEParams {
	p := r.ch.params(psn)
	p.AckReq = true
	return p
}

// track retains frame as the master copy (it stays in switch buffer memory
// until acknowledged) and injects a pooled copy toward the server — the
// traffic manager recycles whatever it is handed, so the master never
// enters the fabric. The retransmitter owns the master until the PSN
// retires (ackThrough recycles it).
func (r *Retransmitter) track(psn uint32, frame []byte) {
	r.injectCopy(frame)
	r.unacked = append(r.unacked, relFrame{psn: psn, frame: frame, sentAt: r.sw.Engine.Now()})
	r.armTimer()
}

func (r *Retransmitter) injectCopy(frame []byte) {
	r.ch.inject(wire.DefaultPool.Clone(frame))
}

// rto returns the current retransmission timeout: fixed Timeout in legacy
// mode, the clamped RFC 6298 estimate shifted by the backoff otherwise.
func (r *Retransmitter) rto() sim.Duration {
	if !r.adaptiveRTO {
		return r.Timeout
	}
	d := r.Timeout
	if r.haveSample {
		d = r.srtt + 4*r.rttvar
	}
	if d < minRTO {
		d = minRTO
	}
	for i := 0; i < r.backoff && d < maxRTO; i++ {
		d *= 2
	}
	if d > maxRTO {
		d = maxRTO
	}
	return d
}

// sample folds one RTT measurement into the estimator (RFC 6298).
func (r *Retransmitter) sample(s sim.Duration) {
	r.RTTSamples++
	if !r.haveSample {
		r.srtt = s
		r.rttvar = s / 2
		r.haveSample = true
		return
	}
	diff := r.srtt - s
	if diff < 0 {
		diff = -diff
	}
	r.rttvar = (3*r.rttvar + diff) / 4
	r.srtt = (7*r.srtt + s) / 8
}

func (r *Retransmitter) armTimer() {
	if r.timer != nil {
		r.sw.Engine.Cancel(r.timer)
		r.timer = nil
	}
	if len(r.unacked) == 0 || r.exhausted {
		return
	}
	r.timer = r.sw.Engine.ScheduleCall(r.rto(), retransmitterTimeout, r, nil, 0)
}

func retransmitterTimeout(recv any, _ []byte, _ int) { recv.(*Retransmitter).onTimeout() }

// onTimeout is a no-progress round: back the timer off, spend retry budget,
// then go-back-N.
func (r *Retransmitter) onTimeout() {
	r.timer = nil
	if len(r.unacked) == 0 {
		return
	}
	if r.adaptiveRTO {
		r.backoff++
		if r.MaxRetries > 0 && r.backoff > r.MaxRetries {
			r.escalate()
			return
		}
	}
	r.resendAll()
}

// resendAll retransmits every unacknowledged frame in order (go-back-N) and
// re-arms the timer.
func (r *Retransmitter) resendAll() {
	for i := range r.unacked {
		r.Retransmits++
		r.unacked[i].rexmit = true
		r.injectCopy(r.unacked[i].frame)
	}
	r.armTimer()
}

// escalate fires the exhaustion callback once and parks the retransmitter:
// masters stay tracked (Retarget can still move them) but nothing is resent
// until progress or a retarget resets the state. The fault surfaces on the
// bound CQ as a CQRetryExhausted completion before OnExhausted runs, so a
// supervisor sees the typed error even when the callback triggers failover.
func (r *Retransmitter) escalate() {
	if r.exhausted {
		return
	}
	r.exhausted = true
	r.Escalations++
	r.reportError(verbs.CQRetryExhausted)
	if r.OnExhausted != nil {
		r.OnExhausted()
	}
}

// reportError surfaces a stream-level transport fault as a typed CQE on the
// bound CQ (no-op when unbound). The CQE carries the oldest unacked
// request's PSN — the position the stream is stuck at; its token is that
// PSN, since stream faults are not bound to a caller token.
func (r *Retransmitter) reportError(st verbs.CQStatus) {
	if r.CQ == nil {
		return
	}
	psn := r.ch.PSN()
	if len(r.unacked) > 0 {
		psn = r.unacked[0].psn
	}
	r.CQ.CompleteError(verbs.OpFetchAdd, uint64(psn), psn, st)
}

// Unacked reports the number of tracked, unacknowledged requests.
func (r *Retransmitter) Unacked() int { return len(r.unacked) }

// HandleResponse processes ACK/NAK bookkeeping, then forwards the response
// to Inner (if any).
func (r *Retransmitter) HandleResponse(ctx *switchsim.Context, pkt *wire.Packet) {
	switch pkt.BTH.Opcode {
	case wire.OpAcknowledge:
		if pkt.HasAETH && pkt.AETH.IsNak() {
			r.NaksSeen++
			// A NAK at PSN n reports the first missing packet: everything
			// before n was received and must retire first, or go-back-N
			// needlessly resends (and the server re-executes) the prefix.
			e := pkt.BTH.PSN
			r.retire((e - 1) & verbs.PSNMask)
			// Surface the fault as a typed CQE: a sequence syndrome means
			// the receiver saw a gap (CQNakPSN); any other NAK rejects the
			// request itself (CQNakRKey).
			if pkt.AETH.Syndrome == wire.AETHNakPSNSeq {
				r.reportError(verbs.CQNakPSN)
			} else {
				r.reportError(verbs.CQNakRKey)
			}
			if len(r.unacked) > 0 && verbs.PSNAfter(r.unacked[0].psn, e) {
				// Sequence desync: the NIC expects a PSN we no longer hold —
				// its frame moved to another server in a Retarget (failback
				// lands here: the stream resumes past the crash gap). The
				// gap can never be filled, so resending higher PSNs would
				// wedge the QP forever; instead resume the stream at the
				// expected PSN and rebuild the window onto it.
				r.Resyncs++
				r.ch.SetPSN(e)
				r.rebuildWindow(r.ch.Base)
			} else {
				r.resendAll()
			}
			ctx.Drop()
			return
		}
		r.retire(pkt.BTH.PSN)
	case wire.OpAtomicAcknowledge:
		r.retire(pkt.BTH.PSN)
	}
	if r.Inner != nil {
		r.Inner.HandleResponse(ctx, pkt)
	} else {
		ctx.Drop()
	}
	r.armTimer()
}

// retire samples the RTT for a cleanly-acked frame (Karn's algorithm skips
// retransmitted ones) and acknowledges cumulatively. Any retired frame is
// progress and un-exhausts the retransmitter, but per RFC 6298 the backoff
// collapses only on a *valid* sample: an ACK for a retransmitted frame says
// nothing about the path's current RTT, and keeping the backed-off RTO
// until a clean measurement is what lets the timer ride out a cluster of
// latency spikes without re-climbing the ladder for each one.
func (r *Retransmitter) retire(psn uint32) {
	before := len(r.unacked)
	if r.adaptiveRTO {
		for _, u := range r.unacked {
			if u.psn == psn {
				if !u.rexmit {
					r.sample(r.sw.Engine.Now().Sub(u.sentAt))
					r.backoff = 0
				}
				break
			}
		}
	}
	r.ackThrough(psn)
	if len(r.unacked) < before {
		r.exhausted = false
	}
}

// ackThrough drops every tracked frame at or before psn (cumulative ACK),
// recycling the retired masters.
func (r *Retransmitter) ackThrough(psn uint32) {
	keep := r.unacked[:0]
	for _, u := range r.unacked {
		if verbs.PSNAfter(u.psn, psn) {
			keep = append(keep, u)
		} else {
			wire.DefaultPool.Put(u.frame)
		}
	}
	for i := len(keep); i < len(r.unacked); i++ {
		r.unacked[i] = relFrame{}
	}
	r.unacked = keep
}

// Retarget re-issues every unacknowledged request on ch — the failover path
// for in-flight state: each tracked master is decoded, rebuilt against the
// new channel's region with fresh PSNs, and the old master recycled. Returns
// how many requests moved. Note the exactness caveat: a request the old
// server executed but never acknowledged is re-executed on the new one, so
// retargeted windows are at-least-once, not exactly-once.
func (r *Retransmitter) Retarget(ch *Channel) int {
	oldBase := r.ch.Base
	r.ch = ch
	r.sw = ch.sw
	r.backoff = 0
	r.exhausted = false
	// The path changed; RTT history from the old server no longer applies.
	r.haveSample = false
	r.srtt, r.rttvar = 0, 0
	moved := r.rebuildWindow(oldBase)
	r.Retargeted += int64(moved)
	return moved
}

// rebuildWindow re-issues every tracked master on the current channel with
// fresh PSNs: each frame is decoded, rebuilt against the channel's region
// (offsets translated from oldBase), and the old master recycled.
func (r *Retransmitter) rebuildWindow(oldBase uint64) int {
	old := r.unacked
	r.unacked = nil
	moved := 0
	for _, u := range old {
		var pkt wire.Packet
		if err := pkt.DecodeFromBytes(u.frame); err == nil {
			// Every master is a FetchAdd. FetchAdd copies out of the old
			// master before we recycle it below.
			r.FetchAdd(int(pkt.AtomicETH.VA-oldBase), pkt.AtomicETH.SwapAdd)
			moved++
		}
		wire.DefaultPool.Put(u.frame)
	}
	r.armTimer()
	return moved
}
