// Package revng is the reverse-engineering toolkit: it reproduces the
// paper's methodology (Sections III and IV) against the simulated machine —
// timing-classified stld sequences (the φ notation), code sliding for
// collision finding, eviction-set probing, and the counter-organization
// experiments of TABLE II.
package revng

import (
	"fmt"
	"sort"
	"strconv"
	"strings"

	"zenspec/internal/asm"
	"zenspec/internal/isa"
	"zenspec/internal/kernel"
	"zenspec/internal/mem"
	"zenspec/internal/pipeline"
	"zenspec/internal/predict"
)

// Fold12 XORs the 12-bit groups of v — the hash contribution of a physical
// frame number.
func Fold12(v uint64) uint16 {
	return uint16((v ^ v>>12 ^ v>>24) & 0xfff)
}

// FrameWithHash returns the n-th physical frame number whose hash
// contribution (Fold12) equals t. Distinct n yield distinct frames.
func FrameWithHash(n uint64, t uint16) uint64 {
	g := uint64(t^Fold12(n<<12)) & 0xfff
	return n<<12 | g
}

// TimingClass is what a timing-only attacker can distinguish (the paper's
// Fig 2 levels, collapsed to the attacker's view).
type TimingClass uint8

// Timing classes, ordered by increasing execution time.
const (
	ClassFast     TimingClass = iota // bypass hit (type H)
	ClassForward                     // predictive store forward (type C)
	ClassStall                       // load waited for store address (A/B/E/F)
	ClassRollback                    // pipeline flush (D/G)
)

func (c TimingClass) String() string {
	switch c {
	case ClassFast:
		return "fast"
	case ClassForward:
		return "forward"
	case ClassStall:
		return "stall"
	case ClassRollback:
		return "rollback"
	}
	return "class?"
}

// ClassOf maps a ground-truth execution type to its timing class.
func ClassOf(t predict.ExecType) TimingClass {
	switch t {
	case predict.TypeH:
		return ClassFast
	case predict.TypeC:
		return ClassForward
	case predict.TypeD, predict.TypeG:
		return ClassRollback
	default:
		return ClassStall
	}
}

// Classifier holds calibrated timing thresholds.
type Classifier struct {
	FastMax    uint64 // <= FastMax: ClassFast
	ForwardMax uint64 // <= ForwardMax: ClassForward
	StallMax   uint64 // <= StallMax: ClassStall; above: ClassRollback
}

// Classify maps a cycle measurement to a timing class.
func (c Classifier) Classify(cycles uint64) TimingClass {
	switch {
	case cycles <= c.FastMax:
		return ClassFast
	case cycles <= c.ForwardMax:
		return ClassForward
	case cycles <= c.StallMax:
		return ClassStall
	default:
		return ClassRollback
	}
}

// Observation is one measured stld execution.
type Observation struct {
	Cycles   uint64
	Class    TimingClass
	TrueType predict.ExecType // ground truth from the simulator trace
}

// Lab is the reverse-engineering fixture: a machine, an experiment process,
// and stld placement with full control over instruction physical addresses.
type Lab struct {
	K *kernel.Kernel
	P *kernel.Process

	Cls Classifier

	// faulted is set when the machine runs under an injected fault plan;
	// measurement procedures that are sound on a quiet machine (single-read
	// verdicts, first-stall searches) harden themselves when it is set.
	faulted bool

	nextVA    uint64
	nextFrame uint64
	dataVA    uint64

	tickProc *kernel.Process
	tickVA   uint64
}

// NewLab boots a fresh machine and calibrates the timing classifier.
func NewLab(cfg kernel.Config) *Lab {
	k := kernel.New(cfg)
	p := k.NewProcess("revng", kernel.DomainUser)
	l := &Lab{
		K:         k,
		P:         p,
		faulted:   cfg.Faults.MachineActive(),
		nextVA:    0x400000,
		nextFrame: 1 << 20, // clear of the kernel's sequential allocator
		dataVA:    0x10000,
	}
	p.MapData(l.dataVA, 4*mem.PageSize)
	p.WarmLine(l.dataVA)
	p.WarmLine(l.dataVA + 0x800)
	l.calibrate()
	return l
}

// StoreAddr and LoadAddr return the data addresses used for aliasing and
// non-aliasing runs.
func (l *Lab) StoreAddr() uint64 { return l.dataVA }

// NonAliasAddr is the load address used for non-aliasing runs.
func (l *Lab) NonAliasAddr() uint64 { return l.dataVA + 0x800 }

// Stld is a placed stld instance.
type Stld struct {
	VA        uint64
	Tmpl      asm.Stld
	StoreIPA  uint64
	LoadIPA   uint64
	StoreHash uint16
	LoadHash  uint16

	lab  *Lab
	proc *kernel.Process
	cpu  int
}

// PlaceStld places an stld at a natural (kernel-chosen) location in the
// lab's process and returns it.
func (l *Lab) PlaceStld() *Stld {
	return l.placeIn(l.P, 0, asm.BuildStld(asm.StldOptions{}))
}

// PlaceStldIn places an stld in an arbitrary process / hardware thread.
func (l *Lab) PlaceStldIn(p *kernel.Process, cpu int) *Stld {
	return l.placeIn(p, cpu, asm.BuildStld(asm.StldOptions{}))
}

func (l *Lab) placeIn(p *kernel.Process, cpu int, tmpl asm.Stld) *Stld {
	va := l.nextVA
	l.nextVA += (uint64(len(tmpl.Code))/mem.PageSize + 2) * mem.PageSize
	p.MapCode(va, tmpl.Code)
	s := l.finish(p, cpu, va, tmpl)
	return &s
}

// finish describes the stld placed at va in p.
func (l *Lab) finish(p *kernel.Process, cpu int, va uint64, tmpl asm.Stld) Stld {
	storeIPA, err := p.IPA(va + uint64(tmpl.StoreOff))
	if err != nil {
		panic(err)
	}
	loadIPA, err := p.IPA(va + uint64(tmpl.LoadOff))
	if err != nil {
		panic(err)
	}
	return Stld{
		VA:        va,
		Tmpl:      tmpl,
		StoreIPA:  storeIPA,
		LoadIPA:   loadIPA,
		StoreHash: predict.Hash48(storeIPA),
		LoadHash:  predict.Hash48(loadIPA),
		lab:       l,
		proc:      p,
		cpu:       cpu,
	}
}

// PlaceStldRandom places an stld at a random byte offset within a page
// backed by a frame with a random hash contribution — the "victim at an
// unknown address" setup of the Fig 7 collision-finding experiments. The
// code is contiguous, so the store/load hash relationship is the natural
// one an attacker can collide with.
func (l *Lab) PlaceStldRandom(rnd func(int) int) *Stld {
	tmpl := asm.BuildStld(asm.StldOptions{})
	f0 := FrameWithHash(l.nextFrame, uint16(rnd(predict.HashEntries)))
	f1 := FrameWithHash(l.nextFrame+1, uint16(rnd(predict.HashEntries)))
	l.nextFrame += 2
	va := l.nextVA
	l.nextVA += 3 * mem.PageSize
	// Map two pages and write the code at a random byte offset.
	pageVA := va &^ uint64(mem.PageMask)
	if err := l.P.MapCodeFrames(pageVA, make([]byte, 2*mem.PageSize), []uint64{f0, f1}); err != nil {
		panic(err)
	}
	off := uint64(rnd(mem.PageSize - 1))
	l.P.WriteBytes(pageVA+off, tmpl.Code)
	s := l.finish(l.P, 0, pageVA+off, tmpl)
	return &s
}

// PlaceStldHash places an stld whose load and store IPAs hash to the given
// values — the PTEditor-grade placement used to build the n_x^y / a_x^y
// variants of TABLE II. The store instruction ends one page and the load
// begins the next, so the two hashes are controlled independently through
// the two frames.
func (l *Lab) PlaceStldHash(storeHash, loadHash uint16) *Stld {
	tmpl := asm.BuildStld(asm.StldOptions{})
	// Pad the start so the STORE occupies the last 8 bytes of page 0.
	pad := (int(mem.PageSize) - isa.InstBytes - tmpl.StoreOff) / isa.InstBytes
	tmpl = asm.BuildStld(asm.StldOptions{PadStart: pad})
	if tmpl.StoreOff != int(mem.PageSize)-isa.InstBytes || tmpl.LoadOff != int(mem.PageSize) {
		panic(fmt.Sprintf("revng: bad stld layout: store %d load %d", tmpl.StoreOff, tmpl.LoadOff))
	}
	storeOffHash := predict.Hash48(uint64(tmpl.StoreOff))
	f0 := FrameWithHash(l.nextFrame, storeHash^storeOffHash)
	f1 := FrameWithHash(l.nextFrame+1, loadHash) // load sits at page offset 0
	l.nextFrame += 2
	va := l.nextVA
	l.nextVA += (uint64(len(tmpl.Code))/mem.PageSize + 2) * mem.PageSize
	if err := l.P.MapCodeFrames(va, tmpl.Code, []uint64{f0, f1}); err != nil {
		panic(err)
	}
	s := l.finish(l.P, 0, va, tmpl)
	if s.StoreHash != storeHash || s.LoadHash != loadHash {
		panic(fmt.Sprintf("revng: hash placement failed: got %#x/%#x want %#x/%#x",
			s.StoreHash, s.LoadHash, storeHash, loadHash))
	}
	return &s
}

// Run executes the stld once. aliasing selects the load address equal to the
// store address. It returns the observation (cycles, timing class, ground
// truth).
func (s *Stld) Run(aliasing bool) Observation {
	p := s.proc
	p.Regs = [isa.NumRegs]uint64{}
	p.Regs[isa.RDI] = s.lab.StoreAddr()
	p.Regs[isa.RSI] = s.lab.StoreAddr()
	if !aliasing {
		p.Regs[isa.RSI] = s.lab.NonAliasAddr()
	}
	p.Regs[isa.R9] = 0xdd
	res := s.lab.K.RunOn(s.cpu, p, s.VA, 0)
	if res.Stop != pipeline.StopHalt {
		panic(fmt.Sprintf("revng: stld stopped with %v (fault %v at %#x)", res.Stop, res.Fault, res.FaultVA))
	}
	cyc := p.Regs[isa.RAX]
	if cyc > 1<<62 {
		// A jittered timer can produce a negative difference; attackers
		// interpret the subtraction as signed and clamp to zero.
		cyc = 0
	}
	ob := Observation{Cycles: cyc, Class: s.lab.Cls.Classify(cyc)}
	if len(res.Stlds) > 0 {
		ob.TrueType = res.Stlds[len(res.Stlds)-1].Type
	}
	return ob
}

// Phi runs a whole sequence (false = n, true = a) and returns the
// observations — the paper's φ.
func (s *Stld) Phi(inputs []bool) []Observation {
	out := make([]Observation, len(inputs))
	for i, a := range inputs {
		out[i] = s.Run(a)
	}
	return out
}

// Counters peeks at the combined predictor state of this stld's pair.
func (s *Stld) Counters() predict.Counters {
	unit := s.lab.K.CPU(s.cpu).Unit
	return unit.PeekCounters(predict.Query{StoreIPA: s.StoreIPA, LoadIPA: s.LoadIPA})
}

// calibrate learns the timing thresholds from a throwaway stld, mirroring
// how the paper separates the Fig 2 levels. Medians over several samples
// keep the thresholds usable under jittered timers (the browser profile).
func (l *Lab) calibrate() {
	s := l.PlaceStld()
	median := func(f func() uint64) uint64 {
		var v []uint64
		for i := 0; i < 5; i++ {
			v = append(v, f())
		}
		sort.Slice(v, func(i, j int) bool { return v[i] < v[j] })
		return v[len(v)/2]
	}
	drain := func() {
		for i := 0; i < 40; i++ {
			s.Run(false)
		}
	}
	h := median(func() uint64 { drain(); return s.Run(false).Cycles }) // H
	g := median(func() uint64 { drain(); return s.Run(true).Cycles })  // G (rollback)
	e := median(func() uint64 {
		drain()
		s.Run(true)                // G
		return s.Run(false).Cycles // E (stall)
	})
	l.Cls = Classifier{
		FastMax:    h + 2,
		ForwardMax: (h + e) / 2,
		StallMax:   (e + g) / 2,
	}
	drain()
}

// Tick runs a trivial program in a separate scheduler process, forcing a
// context switch — the timer-interrupt preemption that is implicit in any
// measurement on a real OS (and which flushes PSFP).
func (l *Lab) Tick() {
	if l.tickProc == nil {
		l.tickProc = l.K.NewProcess("sched", kernel.DomainKernel)
		b := asm.NewBuilder()
		b.Nop().Halt()
		va := l.nextVA
		l.nextVA += 2 * mem.PageSize
		l.tickProc.MapCode(va, b.MustAssemble(va))
		l.tickVA = va
	}
	l.tickProc.Regs = [isa.NumRegs]uint64{}
	l.K.RunOn(0, l.tickProc, l.tickVA, 0)
}

// ParseSeq parses the paper's textual φ notation, e.g. "7n 1a 7n 1a" or
// "7n,a": each token is an optional count followed by n (non-aliasing) or a
// (aliasing).
func ParseSeq(s string) ([]bool, error) {
	var out []bool
	for _, tok := range strings.Fields(strings.ReplaceAll(s, ",", " ")) {
		kind := tok[len(tok)-1]
		if kind != 'n' && kind != 'a' {
			return nil, fmt.Errorf("revng: token %q must end in n or a", tok)
		}
		count := 1
		if len(tok) > 1 {
			var err error
			count, err = strconv.Atoi(tok[:len(tok)-1])
			if err != nil || count < 0 {
				return nil, fmt.Errorf("revng: bad count in token %q", tok)
			}
		}
		for i := 0; i < count; i++ {
			out = append(out, kind == 'a')
		}
	}
	return out, nil
}

// Seq parses the paper's compact sequence notation: positive counts are
// non-aliasing (n), negative counts are aliasing (a). Seq(7, -1, 7, -1)
// is "(7n, a, 7n, a)".
func Seq(counts ...int) []bool {
	var out []bool
	for _, c := range counts {
		if c >= 0 {
			for i := 0; i < c; i++ {
				out = append(out, false)
			}
		} else {
			for i := 0; i < -c; i++ {
				out = append(out, true)
			}
		}
	}
	return out
}

// Classes extracts the timing classes of a φ result.
func Classes(obs []Observation) []TimingClass {
	out := make([]TimingClass, len(obs))
	for i, o := range obs {
		out[i] = o.Class
	}
	return out
}

// Types extracts the ground-truth types of a φ result.
func Types(obs []Observation) []predict.ExecType {
	out := make([]predict.ExecType, len(obs))
	for i, o := range obs {
		out[i] = o.TrueType
	}
	return out
}

// TypesString renders types as the paper prints them, e.g. "7H 1G 4E 3H".
func TypesString(types []predict.ExecType) string {
	if len(types) == 0 {
		return ""
	}
	out := ""
	run, cur := 0, types[0]
	flush := func() {
		if out != "" {
			out += " "
		}
		out += fmt.Sprintf("%d%s", run, cur)
	}
	for _, t := range types {
		if t == cur {
			run++
			continue
		}
		flush()
		run, cur = 1, t
	}
	flush()
	return out
}
