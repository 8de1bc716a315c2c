package summary

import (
	"crypto/sha256"
	"encoding/binary"
	"math"
	"sort"

	"zenspec/internal/isa"
)

// Fingerprint captures every Options knob that changes a per-source analysis
// result. Stride is absent (it only selects which sources are scanned), and
// Base is absent because the dependency closure records branch targets
// relative to the source — a uniformly rebased program keys identically.
type Fingerprint struct {
	Window    int
	MaxStates int
}

// InvalidTarget marks a branch whose target the engine cannot resolve (it
// falls below the mapping base or past the end of the buffer), mirroring
// CFG.TargetOff's failure cases.
const InvalidTarget = int64(math.MinInt64)

// Range is one instruction run of a dependency closure, relative to the
// source offset.
type Range struct {
	Rel   int
	Insts int
}

// BranchDep is one branch the closure crossed: its offset and resolved
// target, both relative to the source. Including targets in the source key
// is what keeps content-equal code at different addresses from sharing a
// result when their branch displacements differ relative to the source.
type BranchDep struct {
	Rel    int
	Target int64
}

// Closure is the static over-approximation of everything one source's
// always-mispredict walk can read: instruction ranges reachable within the
// window from the source (following both branch directions), plus the
// resolved relative target of every branch crossed. Hashing the ranges'
// bytes plus the descriptor yields a key that is stable under edits outside
// the closure and under relocation of the whole region — the foundation of
// the incremental cache.
type Closure struct {
	Ranges   []Range
	Branches []BranchDep
	// Fallback is set when the closure grew past its range budget and
	// degraded to "the whole buffer at this absolute position": still
	// correct, but invalidated by any edit.
	Fallback bool
}

// maxStarts bounds the closure's sweep count before degrading to the
// whole-buffer fallback.
const maxStarts = 64

// targetOff resolves a branch's absolute target VA to a byte offset exactly
// the way CFG.TargetOff does; the two must not drift (a dependency closure
// that resolves differently from the engine would relocate results
// incorrectly).
func targetOff(codeLen int, base uint64, in isa.Inst) (int, bool) {
	t := uint64(uint32(in.Imm))
	if t < base {
		return 0, false
	}
	off := int(t - base)
	if off+isa.InstBytes > codeLen {
		return 0, false
	}
	return off, true
}

// CloseOver computes the dependency closure of the source at src: linear
// sweeps of window+1 instructions from the source and from every reachable
// branch target, each sweep stopping at terminals and fences (where the
// transient path always dies) and at unconditional redirects. The result
// over-approximates the engine's reachable set — a superset is sound (it
// only hashes more bytes); a subset would let a stale cache entry survive an
// edit that changes the analysis.
func CloseOver(code []byte, base uint64, src, window int) Closure {
	var c Closure
	// seen doubles as the worklist: starts are appended once and swept in
	// order (bounded by maxStarts, so the linear membership scan stays cheap
	// and no map is allocated on the hot path).
	seen := make([]int, 1, 8)
	seen[0] = src
	saw := func(t int) bool {
		for _, s := range seen {
			if s == t {
				return true
			}
		}
		return false
	}
	for w := 0; w < len(seen); w++ {
		start := seen[w]
		n := 0
		for off := start; off+isa.InstBytes <= len(code) && n <= window; off += isa.InstBytes {
			n++
			in := isa.Decode(code[off:])
			if in.Op == isa.BAD || in.Op == isa.HALT || in.Op == isa.SYSCALL || in.IsFence() {
				break
			}
			if in.IsBranch() {
				dep := BranchDep{Rel: off - src, Target: InvalidTarget}
				if t, ok := targetOff(len(code), base, in); ok {
					dep.Target = int64(t - src)
					if !saw(t) {
						seen = append(seen, t)
					}
				}
				c.Branches = append(c.Branches, dep)
				if in.Op == isa.JMP {
					break // an unconditional redirect has no fall-through
				}
			}
		}
		if n > 0 {
			c.Ranges = append(c.Ranges, Range{Rel: start - src, Insts: n})
		}
		if len(seen) > maxStarts {
			// Cover every byte (rounding the instruction count up so a
			// trailing partial slot still participates in the hash).
			return Closure{
				Ranges:   []Range{{Rel: -src, Insts: (len(code) + isa.InstBytes - 1) / isa.InstBytes}},
				Fallback: true,
			}
		}
	}
	sort.Slice(c.Ranges, func(i, j int) bool { return c.Ranges[i].Rel < c.Ranges[j].Rel })
	sort.Slice(c.Branches, func(i, j int) bool {
		if c.Branches[i].Rel != c.Branches[j].Rel {
			return c.Branches[i].Rel < c.Branches[j].Rel
		}
		return c.Branches[i].Target < c.Branches[j].Target
	})
	return c
}

// Keyer computes source keys while reusing an internal scratch buffer, so a
// scan that keys thousands of sources does not reallocate the preimage for
// each one. The zero value is ready to use; a Keyer is not safe for
// concurrent use.
type Keyer struct {
	buf []byte
}

// SourceKey derives the content-addressed cache key for one source: a
// SHA-256 over the analysis fingerprint, the source kind, the closure
// descriptor (relative ranges, branch targets, fallback position) and the
// raw bytes of every closure range. Equal keys imply equal analysis results
// relative to the source.
func (kr *Keyer) SourceKey(code []byte, src int, kind byte, fp Fingerprint, c Closure) string {
	// Assemble the preimage in the scratch buffer and hash it in one pass:
	// this runs once per source on every warm scan, and streaming many tiny
	// writes into a digest dominated the warm-path profile.
	buf := kr.buf[:0]
	u64 := func(v uint64) { buf = binary.LittleEndian.AppendUint64(buf, v) }
	buf = append(buf, "zenspec/speccheck/source/v2"...)
	u64(uint64(fp.Window))
	u64(uint64(fp.MaxStates))
	u64(uint64(kind))
	fb := uint64(0)
	if c.Fallback {
		fb = 1
	}
	u64(fb)
	u64(uint64(len(c.Ranges)))
	if c.Fallback {
		// The fallback covers the whole buffer, which can be megabytes:
		// stream it through a digest instead of copying it into the scratch.
		// Its key is position-dependent anyway (Rel encodes the absolute
		// source position), so raw bytes — absolute branch targets included —
		// are fine.
		r := c.Ranges[0]
		u64(uint64(int64(r.Rel)))
		u64(uint64(int64(r.Insts)))
		h := sha256.New()
		h.Write(buf)
		start := src + r.Rel
		end := start + r.Insts*isa.InstBytes
		if end > len(code) {
			end = len(code)
		}
		h.Write(code[start:end])
		buf = binary.LittleEndian.AppendUint64(buf[:0], uint64(len(c.Branches)))
		for _, b := range c.Branches {
			u64(uint64(int64(b.Rel)))
			u64(uint64(b.Target))
		}
		h.Write(buf)
		kr.buf = buf
		return string(h.Sum(nil))
	}
	for _, r := range c.Ranges {
		u64(uint64(int64(r.Rel)))
		u64(uint64(int64(r.Insts)))
		start := src + r.Rel
		end := start + r.Insts*isa.InstBytes
		if end > len(code) {
			end = len(code)
		}
		// Branch immediates are absolute VAs, so hashing them raw would tie
		// the key to the mapping position and defeat relocation sharing.
		// Mask them out: every branch a sweep crossed is in c.Branches with
		// its source-relative target, which carries the semantics instead.
		for off := start; off+isa.InstBytes <= end; off += isa.InstBytes {
			slot := code[off : off+isa.InstBytes]
			if isa.Decode(slot).IsBranch() {
				buf = append(buf, slot[:4]...)
				buf = append(buf, 0, 0, 0, 0)
			} else {
				buf = append(buf, slot...)
			}
		}
	}
	u64(uint64(len(c.Branches)))
	for _, b := range c.Branches {
		u64(uint64(int64(b.Rel)))
		u64(uint64(b.Target))
	}
	kr.buf = buf
	sum := sha256.Sum256(buf)
	return string(sum[:])
}
