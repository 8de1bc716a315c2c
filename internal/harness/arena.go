package harness

import (
	"runtime"
	"sync"
	"sync/atomic"
	"time"
)

// Arena is a per-worker scratch allocator for host-side temporaries inside
// trial bodies: buffers that live only for one trial and would otherwise be
// reallocated tens of thousands of times per experiment. Its one buffer, the
// set fig5's trials track used hashes in, comes back empty, so a trial
// cannot observe what an earlier trial on the same worker left behind —
// reuse is invisible to the simulation, which is what keeps the determinism
// contract intact.
//
// An Arena is not safe for concurrent use; TrialsArena hands each worker its
// own. Simulated machine state (labs, processes, frames) must never be
// pooled here: trials boot fresh machines by contract.
type Arena struct {
	m32 map[uint32]bool
}

// BoolMap32 returns an empty scratch set keyed by uint32, valid until this
// Arena's next BoolMap32 call.
func (a *Arena) BoolMap32() map[uint32]bool {
	if a.m32 == nil {
		a.m32 = make(map[uint32]bool)
	}
	clear(a.m32)
	return a.m32
}

// ArenaPool recycles arenas across experiments of one suite run, so the
// scratch capacity grown by one experiment's trials serves the next. The
// zero value is unusable; a nil pool is allowed everywhere and means "fresh
// arenas, no recycling".
type ArenaPool struct {
	mu   sync.Mutex
	free []*Arena
}

// NewArenaPool returns an empty pool.
func NewArenaPool() *ArenaPool { return &ArenaPool{} }

func (p *ArenaPool) get() *Arena {
	if p == nil {
		return &Arena{}
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	if n := len(p.free); n > 0 {
		a := p.free[n-1]
		p.free = p.free[:n-1]
		return a
	}
	return &Arena{}
}

func (p *ArenaPool) put(a *Arena) {
	if p == nil {
		return
	}
	p.mu.Lock()
	p.free = append(p.free, a)
	p.mu.Unlock()
}

// serialCutoff is the measured cost of the first trial below which the
// parallel path falls back to the serial loop. Dispatching goroutines over
// trials cheaper than the scheduler's own overhead makes experiments slower
// at -parallel N than at -parallel 1 (the suite benchmark showed 0.7×
// "speedups" on the cheapest grids); results are unaffected either way,
// because a trial's outcome depends only on its index.
const serialCutoff = 200 * time.Microsecond

// TrialsArena is Trials with a per-worker scratch Arena passed to every
// trial. Arenas come from pool (nil means fresh ones) and return to it when
// the run finishes.
//
// Two adaptive fallbacks keep "more workers" from ever meaning "slower",
// without changing a single result (a trial's outcome depends only on its
// index, so the scheduling path is invisible): workers are clamped to
// GOMAXPROCS — trials are pure compute, and goroutines beyond the
// scheduler's processors only add context-switch overhead — and the
// parallel path times trial 0 first, running everything serially when one
// trial is cheaper than goroutine dispatch (see serialCutoff).
func TrialsArena[T any](pool *ArenaPool, workers, n int, fn func(trial int, a *Arena) T) []T {
	if n <= 0 {
		return []T{}
	}
	out := make([]T, n)
	if p := runtime.GOMAXPROCS(0); workers > p {
		workers = p
	}
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		a := pool.get()
		for i := range out {
			out[i] = fn(i, a)
		}
		pool.put(a)
		return out
	}
	a := pool.get()
	start := time.Now()
	out[0] = fn(0, a)
	if n == 1 || time.Since(start) < serialCutoff {
		for i := 1; i < n; i++ {
			out[i] = fn(i, a)
		}
		pool.put(a)
		return out
	}
	pool.put(a)
	var next atomic.Int64
	next.Store(1)
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			wa := pool.get()
			defer pool.put(wa)
			for {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				out[i] = fn(i, wa)
			}
		}()
	}
	wg.Wait()
	return out
}
