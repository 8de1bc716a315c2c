// Package prof is a deterministic cycle-attribution profiler for the
// simulated machine. It subscribes to the obs event bus and folds every
// instruction's lifetime into a per-PC top-down stall breakdown mirroring the
// paper's Fig 2 counter taxonomy: front-end/operand wait (dispatch→issue),
// execution (issue→complete), store-queue disambiguation stall, rollback
// replay, and retire wait. Squash windows are tabulated separately per
// (PC, kind).
//
// Accumulation is commutative — per-site sums under a mutex — so one Profile
// shared by all parallel trials of an experiment snapshots identically at any
// worker count, the same property obs.Metrics has. Snapshots export to pprof
// protobuf (go tool pprof), folded flamegraph text, and signed deltas (Diff).
package prof

import (
	"cmp"
	"fmt"
	"slices"
	"sort"
	"strings"
	"sync"

	"zenspec/internal/isa"
	"zenspec/internal/obs"
)

// Key identifies a profile site: the instruction's virtual address plus its
// opcode. The opcode is part of the key because different experiments in one
// suite may map different code at the same address; keying by PC alone would
// merge unrelated instructions and make the aggregate depend on nothing but
// luck.
type Key struct {
	PC uint64
	Op isa.Op
}

// SquashKey identifies a squash site: the squashing instruction's address
// plus the squash kind.
type SquashKey struct {
	PC   uint64
	Kind obs.SquashKind
}

// site accumulates one Key's cycle partition.
type site struct {
	count     int64 // retired executions
	transient int64 // wrong-path executions
	issue     int64 // dispatch→issue: front-end and operand wait
	execute   int64 // issue→complete, minus the called-out shares below
	sqStall   int64 // store-queue disambiguation stall (Fig 2 SQ-stall)
	replay    int64 // rollback-replay share of squashed loads
	retire    int64 // complete→retire: in-order retirement wait
}

// squashSite accumulates one SquashKey's transient windows.
type squashSite struct {
	count   int64
	window  int64 // cycles inside the windows (verify - start)
	penalty int64 // refetch penalty cycles after verify
	insts   int64 // wrong-path instructions executed
}

// siteRef is a site's sort key in Snapshot: its PC, its opcode's rank in
// name order, and its slot.
type siteRef struct {
	pc   uint64
	rank uint8
	slot int32
}

var (
	opRankOnce sync.Once
	opRank     [256]uint8
)

// opRanks maps every opcode to its position in the order of opcode names, so
// sorting by rank sorts by Op.String(). It is built on first use.
func opRanks() *[256]uint8 {
	opRankOnce.Do(func() {
		ops := make([]isa.Op, len(opRank))
		for i := range ops {
			ops[i] = isa.Op(i)
		}
		slices.SortFunc(ops, func(a, b isa.Op) int { return strings.Compare(a.String(), b.String()) })
		for r, op := range ops {
			opRank[op] = uint8(r)
		}
	})
	return &opRank
}

// Profile is an obs.Observer accumulating cycle attribution. Safe for
// concurrent HandleEvent calls; share one Profile across parallel trials.
type Profile struct {
	mu sync.Mutex
	// Sites are stored by value: index maps a Key to its slot in the
	// parallel keys and sites slices, so a profile of many sites holds no
	// per-site heap object and nothing for the garbage collector to scan.
	index map[Key]int32
	keys  []Key
	sites []site
	// memo caches, per hash position of a Key, the slot last seen there
	// plus one (0 is empty). A hit is confirmed against keys, so the memo is
	// exact; it spares the map lookup for the loop bodies that dominate a
	// run.
	memo     [memoSize]int32
	squashes map[SquashKey]*squashSite
}

const (
	memoBits = 12
	memoSize = 1 << memoBits // 16 KB of memo per Profile: it stays in L1
)

// memoPos is k's position in Profile.memo: a Fibonacci hash of the PC with
// the opcode folded into the top byte.
func memoPos(k Key) uint32 {
	return uint32(((k.PC ^ uint64(k.Op)<<56) * 0x9e3779b97f4a7c15) >> (64 - memoBits))
}

// New returns an empty profile. Attach it with Bus.Subscribe (classes inst
// and squash) or through the facade's Config.Profile.
func New() *Profile {
	return &Profile{
		index:    make(map[Key]int32),
		squashes: make(map[SquashKey]*squashSite),
	}
}

// Classes returns the event classes a Profile needs.
func Classes() []obs.Class { return []obs.Class{obs.ClassInst, obs.ClassSquash} }

// HandleInst implements obs.InstObserver: the boxing-free delivery of the
// per-instruction event. Must stay equivalent to HandleEvent on the value.
func (p *Profile) HandleInst(ev *obs.InstEvent) {
	issue := ev.Issue - ev.Dispatch
	exec := ev.Complete - ev.Issue - ev.SQStall - ev.Replay
	retire := ev.RetiredBy - ev.Complete
	if issue < 0 {
		issue = 0
	}
	if exec < 0 {
		exec = 0
	}
	if retire < 0 || ev.Transient {
		retire = 0
	}
	k := Key{ev.PC, ev.Inst.Op}
	pos := memoPos(k)
	p.mu.Lock()
	i := p.memo[pos] - 1
	if i < 0 || p.keys[i] != k {
		var ok bool
		if i, ok = p.index[k]; !ok {
			i = int32(len(p.keys))
			p.index[k] = i
			p.keys = append(p.keys, k)
			p.sites = append(p.sites, site{})
		}
		p.memo[pos] = i + 1
	}
	s := &p.sites[i]
	if ev.Transient {
		s.transient++
	} else {
		s.count++
	}
	s.issue += issue
	s.execute += exec
	s.sqStall += ev.SQStall
	s.replay += ev.Replay
	s.retire += retire
	p.mu.Unlock()
}

// HandleEvent implements obs.Observer.
func (p *Profile) HandleEvent(e obs.Event) {
	switch ev := e.(type) {
	case obs.InstEvent:
		p.HandleInst(&ev)
	case obs.SquashEvent:
		window := ev.Verify - ev.Start
		if window < 0 {
			window = 0
		}
		p.mu.Lock()
		s := p.squashes[SquashKey{ev.PC, ev.Kind}]
		if s == nil {
			s = &squashSite{}
			p.squashes[SquashKey{ev.PC, ev.Kind}] = s
		}
		s.count++
		s.window += window
		s.penalty += ev.Penalty
		s.insts += int64(ev.Insts)
		p.mu.Unlock()
	}
}

// Sample is one profile site in a Snapshot. Cycles() = Issue + Execute +
// SQStall + Replay + Retire is the instruction's full dispatch→retire span
// summed over executions.
type Sample struct {
	PC        uint64 `json:"pc"`
	Op        string `json:"op"`
	Count     int64  `json:"count"`
	Transient int64  `json:"transient,omitempty"`
	Issue     int64  `json:"issue"`
	Execute   int64  `json:"execute"`
	SQStall   int64  `json:"sq_stall"`
	Replay    int64  `json:"replay"`
	Retire    int64  `json:"retire"`
}

// Cycles returns the sample's total attributed cycles.
func (s Sample) Cycles() int64 {
	return s.Issue + s.Execute + s.SQStall + s.Replay + s.Retire
}

// SquashSample is one squash site in a Snapshot.
type SquashSample struct {
	PC      uint64 `json:"pc"`
	Kind    string `json:"kind"`
	Count   int64  `json:"count"`
	Window  int64  `json:"window_cycles"`
	Penalty int64  `json:"penalty_cycles"`
	Insts   int64  `json:"insts"`
}

// Snapshot is a point-in-time copy of a Profile, shaped for JSON. Samples and
// Squashes are sorted by (PC, Op/Kind), so snapshots of deterministic runs
// marshal byte-identically regardless of accumulation order.
type Snapshot struct {
	TotalCycles int64          `json:"total_cycles"`
	Samples     []Sample       `json:"samples,omitempty"`
	Squashes    []SquashSample `json:"squashes,omitempty"`
}

// Snapshot copies the profile.
func (p *Profile) Snapshot() *Snapshot {
	p.mu.Lock()
	defer p.mu.Unlock()
	out := &Snapshot{}
	// Order the sites by (PC, op name) without comparing strings: sort
	// compact (PC, op rank) records, then build the samples in that order.
	rank := opRanks()
	order := make([]siteRef, len(p.keys))
	for i, k := range p.keys {
		order[i] = siteRef{pc: k.PC, rank: rank[k.Op], slot: int32(i)}
	}
	slices.SortFunc(order, func(a, b siteRef) int {
		if a.pc != b.pc {
			return cmp.Compare(a.pc, b.pc)
		}
		return cmp.Compare(a.rank, b.rank)
	})
	out.Samples = make([]Sample, len(order))
	for j, r := range order {
		k, s := p.keys[r.slot], &p.sites[r.slot]
		out.Samples[j] = Sample{
			PC: k.PC, Op: k.Op.String(),
			Count: s.count, Transient: s.transient,
			Issue: s.issue, Execute: s.execute,
			SQStall: s.sqStall, Replay: s.replay, Retire: s.retire,
		}
		out.TotalCycles += out.Samples[j].Cycles()
	}
	out.Squashes = make([]SquashSample, 0, len(p.squashes))
	for k, s := range p.squashes {
		out.Squashes = append(out.Squashes, SquashSample{
			PC: k.PC, Kind: k.Kind.String(),
			Count: s.count, Window: s.window, Penalty: s.penalty, Insts: s.insts,
		})
	}
	sort.Slice(out.Squashes, func(i, j int) bool {
		if out.Squashes[i].PC != out.Squashes[j].PC {
			return out.Squashes[i].PC < out.Squashes[j].PC
		}
		return out.Squashes[i].Kind < out.Squashes[j].Kind
	})
	if len(out.Samples) == 0 {
		out.Samples = nil
	}
	if len(out.Squashes) == 0 {
		out.Squashes = nil
	}
	return out
}

// Merge folds other into s: samples and squash sites matched by key are
// summed, unmatched ones appended. Merging is commutative and associative up
// to the final sort, so any merge order yields the same Snapshot.
func (s *Snapshot) Merge(other *Snapshot) {
	if other == nil {
		return
	}
	byKey := make(map[Sample]int, len(s.Samples)) // keyed on (PC, Op) via a stripped copy
	keyOf := func(x Sample) Sample { return Sample{PC: x.PC, Op: x.Op} }
	for i, x := range s.Samples {
		byKey[keyOf(x)] = i
	}
	for _, x := range other.Samples {
		if i, ok := byKey[keyOf(x)]; ok {
			a := &s.Samples[i]
			a.Count += x.Count
			a.Transient += x.Transient
			a.Issue += x.Issue
			a.Execute += x.Execute
			a.SQStall += x.SQStall
			a.Replay += x.Replay
			a.Retire += x.Retire
		} else {
			byKey[keyOf(x)] = len(s.Samples)
			s.Samples = append(s.Samples, x)
		}
	}
	sqKey := make(map[SquashSample]int, len(s.Squashes))
	keyOfSq := func(x SquashSample) SquashSample { return SquashSample{PC: x.PC, Kind: x.Kind} }
	for i, x := range s.Squashes {
		sqKey[keyOfSq(x)] = i
	}
	for _, x := range other.Squashes {
		if i, ok := sqKey[keyOfSq(x)]; ok {
			a := &s.Squashes[i]
			a.Count += x.Count
			a.Window += x.Window
			a.Penalty += x.Penalty
			a.Insts += x.Insts
		} else {
			sqKey[keyOfSq(x)] = len(s.Squashes)
			s.Squashes = append(s.Squashes, x)
		}
	}
	s.sortAndTotal()
}

// sortAndTotal restores the canonical order and recomputes TotalCycles.
func (s *Snapshot) sortAndTotal() {
	sort.Slice(s.Samples, func(i, j int) bool {
		if s.Samples[i].PC != s.Samples[j].PC {
			return s.Samples[i].PC < s.Samples[j].PC
		}
		return s.Samples[i].Op < s.Samples[j].Op
	})
	sort.Slice(s.Squashes, func(i, j int) bool {
		if s.Squashes[i].PC != s.Squashes[j].PC {
			return s.Squashes[i].PC < s.Squashes[j].PC
		}
		return s.Squashes[i].Kind < s.Squashes[j].Kind
	})
	s.TotalCycles = 0
	for _, x := range s.Samples {
		s.TotalCycles += x.Cycles()
	}
}

// Top returns the n samples with the most attributed cycles, ties broken by
// (PC, Op) so the order is deterministic. n <= 0 means all.
func (s *Snapshot) Top(n int) []Sample {
	out := append([]Sample(nil), s.Samples...)
	sort.Slice(out, func(i, j int) bool {
		ci, cj := out[i].Cycles(), out[j].Cycles()
		if ci != cj {
			return ci > cj
		}
		if out[i].PC != out[j].PC {
			return out[i].PC < out[j].PC
		}
		return out[i].Op < out[j].Op
	})
	if n > 0 && n < len(out) {
		out = out[:n]
	}
	return out
}

// Text renders the top-n table (plus the squash table when present) for
// terminal output.
func (s *Snapshot) Text(n int) string {
	if s == nil || len(s.Samples) == 0 {
		return "  (no profile samples)\n"
	}
	var b strings.Builder
	fmt.Fprintf(&b, "  %10s %6s %8s %8s %8s %8s %8s  %-10s %s\n",
		"cycles", "count", "issue", "exec", "sq_stall", "replay", "retire", "pc", "op")
	for _, x := range s.Top(n) {
		fmt.Fprintf(&b, "  %10d %6d %8d %8d %8d %8d %8d  %#-10x %s\n",
			x.Cycles(), x.Count, x.Issue, x.Execute, x.SQStall, x.Replay, x.Retire,
			x.PC, strings.ToLower(x.Op))
	}
	if len(s.Squashes) > 0 {
		fmt.Fprintf(&b, "  squashes:\n")
		for _, q := range s.Squashes {
			fmt.Fprintf(&b, "  %10d× %-8s window=%d penalty=%d insts=%d  pc=%#x\n",
				q.Count, q.Kind, q.Window, q.Penalty, q.Insts, q.PC)
		}
	}
	return b.String()
}
