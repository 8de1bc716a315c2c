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
	// Sites are stored by value in the parallel keys and sites slices, so a
	// profile of many sites holds no per-site heap object and nothing for the
	// garbage collector to scan. pages indexes them by code page: entry
	// PC%pageSize of page PC/pageSize holds the slot, plus one, of the newest
	// site at that PC (0 is none), and next[slot] the slot, plus one, of the
	// site before it at the same PC, which has another opcode.
	pages map[uint64]*sitePage
	next  []int32
	keys  []Key
	sites []site
	// lastPN and lastPage cache the page of the previous fold, so code that
	// stays on one page skips the map.
	lastPN   uint64
	lastPage *sitePage
	squashes map[SquashKey]*squashSite
}

const (
	pageBits = 12
	pageSize = 1 << pageBits
)

// sitePage indexes the sites of one code page by byte offset: code sliding
// runs instructions at every byte.
type sitePage [pageSize]int32

// New returns an empty profile. Attach it with Bus.Subscribe (classes inst
// and squash) or through the facade's Config.Profile.
func New() *Profile {
	return &Profile{
		pages:    make(map[uint64]*sitePage),
		lastPN:   ^uint64(0), // no page: page numbers are below 2^52
		squashes: make(map[SquashKey]*squashSite),
	}
}

// Classes returns the event classes a Profile needs.
func Classes() []obs.Class { return []obs.Class{obs.ClassInst, obs.ClassSquash} }

// HandleInsts implements obs.InstObserver: a batch folds under one lock.
func (p *Profile) HandleInsts(evs []obs.InstEvent) {
	p.mu.Lock()
	for i := range evs {
		p.fold(&evs[i])
	}
	p.mu.Unlock()
}

// HandleInst folds one instruction event, as HandleEvent would.
func (p *Profile) HandleInst(ev *obs.InstEvent) {
	p.mu.Lock()
	p.fold(ev)
	p.mu.Unlock()
}

// fold adds one instruction's cycle partition to its site. p.mu is held.
func (p *Profile) fold(ev *obs.InstEvent) {
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
	s := &p.sites[p.slot(ev.PC, ev.Inst.Op)]
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
}

// slot returns the slot of site (pc, op), adding the site on first sight.
// p.mu is held.
func (p *Profile) slot(pc uint64, op isa.Op) int32 {
	if pn := pc >> pageBits; pn != p.lastPN {
		pg := p.pages[pn]
		if pg == nil {
			pg = new(sitePage)
			p.pages[pn] = pg
		}
		p.lastPN, p.lastPage = pn, pg
	}
	head := &p.lastPage[pc&(pageSize-1)]
	for i := *head - 1; i >= 0; i = p.next[i] - 1 {
		if p.keys[i].Op == op {
			return i
		}
	}
	i := int32(len(p.keys))
	p.keys = append(p.keys, Key{pc, op})
	p.sites = append(p.sites, site{})
	p.next = append(p.next, *head)
	*head = i + 1
	return i
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
	// Walk the sites in (PC, op name) order: pages in order, offsets in
	// order, and the few sites at one PC by their opcode's rank.
	pns := make([]uint64, 0, len(p.pages))
	for pn := range p.pages {
		pns = append(pns, pn)
	}
	slices.Sort(pns)
	rank := opRanks()
	byRank := func(a, b int32) int { return cmp.Compare(rank[p.keys[a].Op], rank[p.keys[b].Op]) }
	out.Samples = make([]Sample, 0, len(p.keys))
	var atPC []int32
	for _, pn := range pns {
		for _, head := range p.pages[pn] {
			atPC = atPC[:0]
			for i := head - 1; i >= 0; i = p.next[i] - 1 {
				atPC = append(atPC, i)
			}
			if len(atPC) > 1 {
				slices.SortFunc(atPC, byRank)
			}
			for _, i := range atPC {
				k, s := p.keys[i], &p.sites[i]
				x := Sample{
					PC: k.PC, Op: k.Op.String(),
					Count: s.count, Transient: s.transient,
					Issue: s.issue, Execute: s.execute,
					SQStall: s.sqStall, Replay: s.replay, Retire: s.retire,
				}
				out.Samples = append(out.Samples, x)
				out.TotalCycles += x.Cycles()
			}
		}
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
