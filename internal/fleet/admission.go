package fleet

import "sync"

// Rate configures one admission class: a token bucket refilled at
// PerTick tokens per virtual-time tick, holding at most Burst tokens.
// Each run event spends one token; join/leave events bypass admission
// (membership changes are never dropped).
type Rate struct {
	PerTick float64 `json:"per_tick"`
	Burst   float64 `json:"burst"`
}

// TokenBucket is a token bucket over the fleet's virtual clock. It is
// deliberately not wall-clock based: refills depend only on submitted
// event timestamps, so admission decisions are part of the deterministic
// event-trace semantics rather than a function of host speed. The fleet
// calls Allow only under its ingest lock, so its buckets spend in ingest
// order; the bucket's own mutex keeps the exported type safe for other
// callers.
type TokenBucket struct {
	mu      sync.Mutex
	perTick float64
	burst   float64
	tokens  float64
	last    int64
	primed  bool
}

// NewTokenBucket returns a bucket that starts full at the first
// observed tick.
func NewTokenBucket(r Rate) *TokenBucket {
	return &TokenBucket{perTick: r.PerTick, burst: r.Burst}
}

// Allow spends one token at virtual time at, refilling for the ticks
// elapsed since the last call first. Time moving backwards (events may
// carry stale timestamps) refills nothing but still allows spending.
// Safe for concurrent use; concurrent callers spend in lock order.
func (b *TokenBucket) Allow(at int64) bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	if !b.primed {
		b.primed = true
		b.last = at
		b.tokens = b.burst
	}
	if at > b.last {
		b.tokens += float64(at-b.last) * b.perTick
		if b.tokens > b.burst {
			b.tokens = b.burst
		}
		b.last = at
	}
	if b.tokens >= 1 {
		b.tokens--
		return true
	}
	return false
}
