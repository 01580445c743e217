package verbs

// Striped fan-out: one logical work queue sharded over N servers' QPs.
//
// The primitives address remote state by a dense integer key — ring entry,
// counter index, table index — and the paper's scale arguments ("one or
// multiple servers", §2.1; million-entry tables, §2.2) need that key space
// spread over several servers' regions. StripedQP owns the placement: a key
// always lands on the same shard (consistent modulo placement, so failover
// or growth of an unrelated shard never moves it), its slot offset inside
// that shard's region is derived from the same key, and each shard keeps its
// own QP — private credit window, PSN space, retransmitter and failover
// domain — while completions and stats merge back into one surface.
//
// Placement is deliberately modulo, not a mixing hash: shard(key) = key mod
// N and slot(key) = key div N. For the ring buffer this is exactly the
// round-robin stripe the ordering rule wants (consecutive entries alternate
// servers, the per-shard slot advances like a private ring); for counters
// and table entries it is a fixed home with per-shard capacity Counters/N.
// A single-shard StripedQP degenerates to the unsharded layout byte for
// byte: shard(key) = 0, slot(key) = key.

// StripeConfig fixes a striped QP's key placement.
type StripeConfig struct {
	// EntrySize is the byte footprint of one key's slot inside its shard's
	// region: Offset(key) = slot(key) * EntrySize.
	EntrySize int
	// SlotsPerShard, when positive, wraps the shard-local slot index (ring
	// semantics: slot = (key/N) mod SlotsPerShard). 0 = linear placement.
	SlotsPerShard int
}

// StripedQP shards Post* calls across N per-server QPs by key. It adds no
// tracking of its own: every WQE lives on its home shard, so per-shard
// recovery (reap, repost, abort, rebind) composes without cross-shard
// bookkeeping.
type StripedQP struct {
	shards []*QP
	cfg    StripeConfig
}

// NewStriped builds a striped QP over shards (one per server, in server
// order). The shard list is fixed for the striped QP's lifetime; failover
// replaces a shard's endpoint (Rebind), never the shard count.
func NewStriped(shards []*QP, cfg StripeConfig) *StripedQP {
	if len(shards) == 0 {
		panic("verbs: striped QP needs at least one shard")
	}
	if cfg.EntrySize <= 0 {
		panic("verbs: striped QP needs a positive entry size")
	}
	return &StripedQP{shards: shards, cfg: cfg}
}

// Shard returns shard i's QP (completion routing: the caller maps a
// response's destination QPN to a shard index and dispatches there).
func (s *StripedQP) Shard(i int) *QP { return s.shards[i] }

// ShardOf returns key's home shard: key mod N, fixed for the striped QP's
// lifetime.
func (s *StripedQP) ShardOf(key uint64) int {
	return int(key % uint64(len(s.shards)))
}

// Home returns key's home QP.
func (s *StripedQP) Home(key uint64) *QP { return s.shards[s.ShardOf(key)] }

// Offset returns key's byte offset inside its home shard's region.
func (s *StripedQP) Offset(key uint64) int {
	slot := key / uint64(len(s.shards))
	if s.cfg.SlotsPerShard > 0 {
		slot %= uint64(s.cfg.SlotsPerShard)
	}
	return int(slot) * s.cfg.EntrySize
}

// CanPost reports whether key's home shard has a credit available.
func (s *StripedQP) CanPost(key uint64) bool { return s.Home(key).CanPost() }

// TokenPending reports whether key is in flight on its home shard.
func (s *StripedQP) TokenPending(key uint64) bool { return s.Home(key).TokenPending(key) }

// PostRead posts a READ of key's slot (n bytes from its base) on the home
// shard, with key as the completion token.
func (s *StripedQP) PostRead(key uint64, n int, respPkts uint32, mode CreditMode) bool {
	return s.Home(key).PostRead(key, s.Offset(key), n, respPkts, mode)
}

// PostWrite posts a WRITE of payload at key's slot base plus skew bytes.
func (s *StripedQP) PostWrite(key uint64, skew int, payload []byte) bool {
	return s.Home(key).PostWrite(s.Offset(key)+skew, payload)
}

// Repost re-issues key's tracked READ on its home shard with fresh PSNs.
func (s *StripedQP) Repost(key uint64) bool { return s.Home(key).Repost(key) }

// Pending sums in-flight WQEs across shards.
func (s *StripedQP) Pending() int {
	n := 0
	for _, q := range s.shards {
		n += q.Pending()
	}
	return n
}

// Stats merges every shard's transport counters.
func (s *StripedQP) Stats() Stats {
	var st Stats
	for _, q := range s.shards {
		st = st.Add(q.Stats)
	}
	return st
}

// Errors merges every shard's typed error-completion counters — the
// supervisor's rate source, cheap enough to call once per tick.
func (s *StripedQP) Errors() ErrStats {
	var e ErrStats
	for _, q := range s.shards {
		e = e.Add(q.Stats.Errors)
	}
	return e
}

// AppendExpired appends every shard's expired tokens to buf; the caller
// sorts the merged set so retry order (and PSN assignment) is reproducible.
func (s *StripedQP) AppendExpired(buf []uint64) []uint64 {
	for _, q := range s.shards {
		buf = q.AppendExpired(buf)
	}
	return buf
}
