package speccheck

import (
	"fmt"
	"strings"

	"zenspec/internal/cache"
	"zenspec/internal/isa"
	"zenspec/internal/mem"
	"zenspec/internal/obs"
	"zenspec/internal/pipeline"
	"zenspec/internal/pmc"
	"zenspec/internal/predict"
)

// Verdict classifies a static finding after dynamic replay.
type Verdict uint8

// Verdicts.
const (
	// VerdictOverApprox means no replay schedule produced a transient
	// execution of the transmitter: the finding stands as a static
	// over-approximation (it may still be reachable with inputs the
	// validator's heuristics did not construct).
	VerdictOverApprox Verdict = iota
	// VerdictConfirmed means the pipeline simulator, with its predictors
	// mistrained, transiently executed the transmitter with the speculative
	// source active — the leak is dynamically real.
	VerdictConfirmed
)

func (v Verdict) String() string {
	if v == VerdictConfirmed {
		return "confirmed"
	}
	return "over-approximation"
}

// Validation is the dynamic classification of one finding.
type Validation struct {
	Finding Finding `json:"finding"`
	Verdict Verdict `json:"-"`
	// Confirmed mirrors Verdict for JSON output.
	Confirmed bool `json:"confirmed"`
	// Detail says what evidence decided the verdict.
	Detail string `json:"detail"`
	// Runs is the total number of simulator runs performed.
	Runs int `json:"runs"`
}

// Report aggregates the validation of one Analyze result set.
type Report struct {
	Results []Validation `json:"results"`
}

// Confirmed counts dynamically confirmed findings.
func (r Report) Confirmed() int {
	n := 0
	for _, v := range r.Results {
		if v.Verdict == VerdictConfirmed {
			n++
		}
	}
	return n
}

// Precision is the confirmed fraction of all findings (1 when there are
// none): the static analyzer's measured precision against the simulator.
func (r Report) Precision() float64 {
	if len(r.Results) == 0 {
		return 1
	}
	return float64(r.Confirmed()) / float64(len(r.Results))
}

func (r Report) String() string {
	var sb strings.Builder
	for _, v := range r.Results {
		fmt.Fprintf(&sb, "%-18s %s (%s)\n", v.Verdict, v.Finding, v.Detail)
	}
	fmt.Fprintf(&sb, "precision: %d/%d confirmed (%.2f)\n",
		r.Confirmed(), len(r.Results), r.Precision())
	return sb.String()
}

// ValidateOptions tunes the dynamic replay.
type ValidateOptions struct {
	// Base is the VA the code is mapped at; it must leave the low data
	// region (< 0x90000) free. 0 means 0x400000.
	Base uint64
	// Runs is the number of simulator runs per mistraining schedule
	// (training runs plus the probe run). 0 means 6.
	Runs int
	// MaxInsts caps retired instructions per run. 0 means 20000.
	MaxInsts uint64
}

func (o ValidateOptions) withDefaults() ValidateOptions {
	if o.Base == 0 {
		o.Base = 0x400000
	}
	if o.Runs == 0 {
		o.Runs = 6
	}
	if o.MaxInsts == 0 {
		o.MaxInsts = 20000
	}
	return o
}

// ValidateAll replays every finding and returns the aggregate report.
func ValidateAll(code []byte, findings []Finding, opts ValidateOptions) Report {
	var r Report
	for _, f := range findings {
		r.Results = append(r.Results, Validate(code, f, opts))
	}
	return r
}

// dataTop bounds the low RW region the validator maps for data accesses;
// loaded garbage values masked into small ranges stay inside it.
const dataTop = 0x90000

// scratchVA is the canonical data pointer handed to address-carrying input
// registers; it sits inside the mapped low region with room on both sides.
const scratchVA = 0x10000

// Validate replays one finding through the pipeline simulator under a set of
// mistraining schedules and classifies it.
//
// The replay maps the code at opts.Base and a zero-initialized (or
// pointer-filled) RW region over the low addresses, derives input register
// values from how each register is used on the entry grid (memory bases get
// a scratch pointer, pure multiplier operands get 1, branch conditions get
// the schedule's per-run value), and runs the program repeatedly so the
// branch predictor and SSBP/PSFP see a training phase before the probe run.
//
// A finding is confirmed when a run shows dynamic evidence of the leak:
//
//   - STL: a type-G (bypass rollback) or type-D (wrong PSF forward) event
//     for exactly the finding's store/load instruction pair, and a transient
//     execution of the transmitter in the same run;
//   - CTL: a branch misprediction in the run plus transient executions of
//     both the chain's first load and the transmitter.
func Validate(code []byte, f Finding, opts ValidateOptions) Validation {
	opts = opts.withDefaults()
	v := Validation{Finding: f, Detail: "no transient execution of the transmitter observed"}

	entry := f.SourceOff % isa.InstBytes
	profile := regProfile(code, entry)

	for _, sched := range schedules(f.Kind, opts.Runs) {
		m := newDynMachine(code, opts.Base, sched.fill)
		txVA := opts.Base + uint64(f.TransmitOff)
		ld1VA := txVA // CTL chains always have a load; guard anyway
		if len(f.LoadOffs) > 0 {
			ld1VA = opts.Base + uint64(f.LoadOffs[0])
		}
		for run, cond := range sched.condVals {
			v.Runs++
			regs := profile.values(cond)
			mispredBefore := m.core.PMC().Get(pmc.BranchMispredicts)
			m.trace = m.trace[:0]
			res := m.core.Run(m.as, opts.Base+uint64(entry), &regs, opts.MaxInsts)

			switch f.Kind {
			case KindSTL:
				if m.stlEvidence(f, opts.Base, res) && m.transientAt(txVA) {
					v.Verdict, v.Confirmed = VerdictConfirmed, true
					v.Detail = fmt.Sprintf(
						"bypass event on store@+%#x/ld1@+%#x and transient transmitter (run %d, fill=%#x, cond=%d)",
						f.SourceOff, f.LoadOffs[0], run+1, sched.fill, cond)
					return v
				}
			case KindCTL:
				mispred := m.core.PMC().Get(pmc.BranchMispredicts) - mispredBefore
				if mispred > 0 && m.transientAt(ld1VA) && m.transientAt(txVA) {
					v.Verdict, v.Confirmed = VerdictConfirmed, true
					v.Detail = fmt.Sprintf(
						"branch mispredict with transient ld1 and transmitter (run %d, fill=%#x, cond=%d)",
						run+1, sched.fill, cond)
					return v
				}
			}
		}
	}
	return v
}

// schedule is one mistraining plan: the memory fill pattern and the branch
// condition value for each run.
type schedule struct {
	fill     uint64
	condVals []uint64
}

func schedules(kind Kind, runs int) []schedule {
	repeat := func(v uint64, n int) []uint64 {
		s := make([]uint64, n)
		for i := range s {
			s[i] = v
		}
		return s
	}
	var out []schedule
	for _, fill := range []uint64{0, scratchVA} {
		switch kind {
		case KindSTL:
			// Condition registers are held constant; both directions are
			// tried so a gadget on either side of a guard executes.
			out = append(out,
				schedule{fill: fill, condVals: repeat(0, runs)},
				schedule{fill: fill, condVals: repeat(1, runs)})
		case KindCTL:
			// Train the branch one way, then flip it on the probe run.
			train0 := append(repeat(0, runs-1), 1)
			train1 := append(repeat(1, runs-1), 0)
			out = append(out,
				schedule{fill: fill, condVals: train0},
				schedule{fill: fill, condVals: train1})
		}
	}
	return out
}

// dynTracer subscribes the machine's trace buffer through the boxing-free
// obs.InstObserver fast path.
type dynTracer dynMachine

// HandleInsts implements obs.InstObserver.
func (t *dynTracer) HandleInsts(evs []obs.InstEvent) { t.trace = append(t.trace, evs...) }

// HandleEvent implements obs.Observer.
func (t *dynTracer) HandleEvent(e obs.Event) {
	if ie, ok := e.(obs.InstEvent); ok {
		t.trace = append(t.trace, ie)
	}
}

// dynMachine is a minimal single-address-space machine for replays.
type dynMachine struct {
	phys  *mem.Physical
	as    *mem.AddrSpace
	ch    *cache.Hierarchy
	unit  *predict.Unit
	core  *pipeline.Core
	trace []obs.InstEvent
}

func newDynMachine(code []byte, base, fill uint64) *dynMachine {
	m := &dynMachine{
		phys: mem.NewPhysical(),
		as:   mem.NewAddrSpace(),
		ch:   cache.New(cache.DefaultConfig()),
		unit: predict.NewUnit(predict.Config{Seed: 1}),
	}
	m.core = pipeline.New(pipeline.Config{}, m.phys, m.ch, m.unit, &pmc.Counters{})
	bus := obs.NewBus()
	m.core.AttachBus(bus, 0)
	bus.Subscribe((*dynTracer)(m), obs.Options{Classes: []obs.Class{obs.ClassInst}})

	// Low RW region for data: every pointerish register and every masked
	// secret-derived displacement lands somewhere in here.
	for va := uint64(0); va < dataTop; va += mem.PageSize {
		m.as.Map(va, m.phys.AllocFrame(), mem.PermRW)
	}
	if fill != 0 {
		for va := uint64(0); va+8 <= dataTop; va += 8 {
			pa, _ := m.as.Translate(va, mem.AccessWrite)
			m.phys.Write64(pa, fill)
		}
	}

	// Code pages.
	for off := uint64(0); off < uint64(len(code))+mem.PageSize-1; off += mem.PageSize {
		if _, ok := m.as.Lookup(base + off); !ok {
			m.as.Map(base+off, m.phys.AllocFrame(), mem.PermR|mem.PermX)
		}
	}
	for i, b := range code {
		pa, fault := m.as.Translate(base+uint64(i), mem.AccessRead)
		if fault != mem.FaultNone {
			panic("speccheck: code map translate failed")
		}
		m.phys.WriteBytes(pa, []byte{b})
	}
	return m
}

// transientAt reports whether the last run executed the instruction at va
// inside a transient window.
func (m *dynMachine) transientAt(va uint64) bool {
	for _, e := range m.trace {
		if e.Transient && e.PC == va {
			return true
		}
	}
	return false
}

// stlEvidence reports whether the run produced a misspeculated store-load
// event (bypass G or wrong forward D) for exactly the finding's pair.
func (m *dynMachine) stlEvidence(f Finding, base uint64, res pipeline.RunResult) bool {
	if len(f.LoadOffs) == 0 {
		return false
	}
	storeIPA, okS := m.ipaOf(base + uint64(f.SourceOff))
	ld1IPA, okL := m.ipaOf(base + uint64(f.LoadOffs[0]))
	if !okS || !okL {
		return false
	}
	for _, ev := range res.Stlds {
		// Only architectural-path events count: inside someone else's
		// transient episode the pairing store of an event is whatever was
		// youngest in the queue, so a transient G/D on this pair would
		// attribute another gadget's misspeculation to this finding.
		if !ev.Transient && (ev.Type == predict.TypeG || ev.Type == predict.TypeD) &&
			ev.StoreIPA == storeIPA && ev.LoadIPA == ld1IPA {
			return true
		}
	}
	return false
}

func (m *dynMachine) ipaOf(va uint64) (uint64, bool) {
	pa, fault := m.as.Translate(va, mem.AccessExec)
	return pa, fault == mem.FaultNone
}

// role classifies how an input register (read before written on the entry
// grid) is used, which decides the value the replay seeds it with.
type role uint8

const (
	roleNone    role = iota
	roleMul          // only ever a multiplier operand: seeded with 1
	roleScratch      // flows into addresses or data: seeded with scratchVA
	roleCond         // conditional-branch operand: seeded per schedule
)

type regRoles [isa.NumRegs]role

// regProfile scans the code linearly on the grid starting at entry and
// classifies every register that is read before being written.
func regProfile(code []byte, entry int) regRoles {
	var roles regRoles
	var written [isa.NumRegs]bool
	note := func(r isa.Reg, ro role) {
		if !written[r] && ro > roles[r] {
			roles[r] = ro
		}
	}
	for off := entry; off+isa.InstBytes <= len(code); off += isa.InstBytes {
		in := isa.Decode(code[off:])
		switch in.Op {
		case isa.LOAD, isa.CLFLUSH:
			note(in.Src1, roleScratch)
		case isa.STORE:
			note(in.Src1, roleScratch)
			note(in.Src2, roleScratch)
		case isa.JZ, isa.JNZ:
			note(in.Src1, roleCond)
		case isa.IMUL:
			note(in.Src1, roleMul)
			note(in.Src2, roleMul)
		case isa.SYSCALL, isa.HALT, isa.BAD:
			// No register roles worth seeding.
		default:
			srcs, n := in.SrcRegs()
			for i := 0; i < n; i++ {
				note(srcs[i], roleScratch)
			}
		}
		if in.WritesReg() {
			written[in.Dst] = true
		}
	}
	return roles
}

// values materializes the register file for one run.
func (r regRoles) values(cond uint64) [isa.NumRegs]uint64 {
	var regs [isa.NumRegs]uint64
	for i, ro := range r {
		switch ro {
		case roleMul:
			regs[i] = 1
		case roleScratch:
			regs[i] = scratchVA
		case roleCond:
			regs[i] = cond
		}
	}
	return regs
}
