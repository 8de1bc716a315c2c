package fault

import (
	"encoding/binary"
	"hash/fnv"
	"time"
)

// Backoff is a deterministic retry-delay schedule: capped exponential growth
// with jitter derived from (Key, attempt) the same way the trial fault
// streams are. Delay is a pure function of its coordinates — no state, no
// wall clock, no shared RNG — so tests can assert exact schedules. The
// service's pull workers wait on it between failed calls to their daemon.
//
// The jitter follows the "equal jitter" discipline: attempt n waits at least
// half of the capped exponential step Base<<n and at most the full step, the
// fraction in between drawn from the coordinate hash. That bounds both the
// thundering-herd correlation (distinct keys decorrelate) and the worst-case
// added latency (never more than 2x the minimum wait).
type Backoff struct {
	// Base is the attempt-0 step; a non-positive Base disables waiting
	// entirely (every Delay is 0), which is what unit tests want.
	Base time.Duration
	// Max caps the exponential step before jitter; non-positive means
	// uncapped (until the shift saturates).
	Max time.Duration
	// Key selects the jitter stream: two workers keyed by their names never
	// wait in lockstep, while one worker's waits are the same on every run.
	Key string
}

// Delay returns the wait before retry `attempt` (attempt 0 is the first
// retry). Negative attempts return 0.
func (b Backoff) Delay(attempt int) time.Duration {
	if b.Base <= 0 || attempt < 0 {
		return 0
	}
	d := b.Base
	for i := 0; i < attempt; i++ {
		d <<= 1
		if d <= 0 || (b.Max > 0 && d >= b.Max) {
			// Saturated (or overflowed past) the cap: stop doubling.
			d = b.Max
			if d <= 0 {
				d = 1 << 62
			}
			break
		}
	}
	if b.Max > 0 && d > b.Max {
		d = b.Max
	}
	// 53 uniform bits of the coordinate hash, exactly representable in a
	// float64 — the same construction as Plan.TrialFaultAt.
	h := fnv.New64a()
	h.Write([]byte(b.Key))
	var buf [8]byte
	binary.LittleEndian.PutUint64(buf[:], uint64(attempt))
	h.Write(buf[:])
	u := float64(h.Sum64()>>11) / float64(1<<53)
	half := d / 2
	return half + time.Duration(u*float64(d-half))
}
