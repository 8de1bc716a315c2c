package pipeline

import (
	"testing"

	"zenspec/internal/asm"
	"zenspec/internal/cache"
	"zenspec/internal/isa"
	"zenspec/internal/mem"
	"zenspec/internal/pmc"
	"zenspec/internal/predict"
)

// stldEnv wires an stld microbenchmark into an env.
type stldEnv struct {
	*env
	s     asm.Stld
	entry uint64
}

func newStldEnv(t testing.TB, cfg Config) *stldEnv {
	e := newEnv(t, cfg)
	s := asm.BuildStld(asm.StldOptions{})
	e.mapCode(codeBase, s.Code)
	e.mapData(dataBase, 2*mem.PageSize)
	se := &stldEnv{env: e, s: s, entry: codeBase}
	// Warm the data lines so stall-type timing is cache-hit bound.
	for _, va := range []uint64{dataBase, dataBase + 0x800} {
		pa, _ := e.as.Translate(va, mem.AccessRead)
		e.ch.Touch(pa)
	}
	return se
}

// setSSBD hands the core a fresh predictor unit booted with SSBD set.
func (se *stldEnv) setSSBD() {
	se.unit = predict.NewUnit(predict.Config{Seed: 1, SSBD: true})
	se.core.dis = se.unit
}

// exec runs one stld: aliasing chooses the load address equal to the store
// address. It returns the measured cycles and the trace events.
func (se *stldEnv) exec(aliasing bool) (uint64, []StldEvent) {
	var regs [isa.NumRegs]uint64
	regs[isa.RDI] = dataBase
	regs[isa.RSI] = dataBase
	if !aliasing {
		regs[isa.RSI] = dataBase + 0x800
	}
	regs[isa.R9] = 0xdd
	res := se.run(se.entry, &regs)
	return regs[isa.RAX], res.Stlds
}

// phi runs a sequence (false = n, true = a) and returns the observed types.
func (se *stldEnv) phi(inputs []bool) []predict.ExecType {
	var out []predict.ExecType
	for _, a := range inputs {
		_, ev := se.exec(a)
		if len(ev) != 1 {
			panic("stld should produce exactly one speculation event")
		}
		out = append(out, ev[0].Type)
	}
	return out
}

func boolSeq(counts ...int) []bool {
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

// TestStldPhiSequence1 runs φ(n,a,7n) = (H,G,4E,3H) end to end through the
// pipeline (not just the state machine).
func TestStldPhiSequence1(t *testing.T) {
	se := newStldEnv(t, Config{})
	got := se.phi(boolSeq(1, -1, 7))
	want := []predict.ExecType{predict.TypeH, predict.TypeG,
		predict.TypeE, predict.TypeE, predict.TypeE, predict.TypeE,
		predict.TypeH, predict.TypeH, predict.TypeH}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("step %d: %v, want %v (full %v)", i, got[i], want[i], got)
		}
	}
}

// TestStldPhiSequence2 runs φ(a,4n,a,4n,a,16n)=(G,4E,G,4E,G,15F,H) through
// the pipeline.
func TestStldPhiSequence2(t *testing.T) {
	se := newStldEnv(t, Config{})
	got := se.phi(boolSeq(-1, 4, -1, 4, -1, 16))
	var want []predict.ExecType
	add := func(n int, ty predict.ExecType) {
		for i := 0; i < n; i++ {
			want = append(want, ty)
		}
	}
	add(1, predict.TypeG)
	add(4, predict.TypeE)
	add(1, predict.TypeG)
	add(4, predict.TypeE)
	add(1, predict.TypeG)
	add(15, predict.TypeF)
	add(1, predict.TypeH)
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("step %d: %v, want %v (full %v)", i, got[i], want[i], got)
		}
	}
}

// TestStldReachesTypeC drives the pair into the PSF-enabled state and
// observes a predictive store forward (type C), then a type D rollback.
func TestStldReachesTypeC(t *testing.T) {
	se := newStldEnv(t, Config{})
	se.phi(boolSeq(7, -1)) // G: train aliasing
	// C1 starts at 16 and drops by 1 per aliasing run; PSF fires once it is
	// below 12, i.e. on the 6th aliasing execution.
	types := se.phi(boolSeq(-6))
	last := types[len(types)-1]
	if last != predict.TypeC {
		t.Fatalf("after 6a: %v, want final C", types)
	}
	if se.core.PMC().Get(pmc.PSFForwards) == 0 {
		t.Error("no PSF forward counted")
	}
	dTypes := se.phi(boolSeq(1))
	if dTypes[0] != predict.TypeD {
		t.Errorf("n in PSF-enabled state: %v, want D", dTypes[0])
	}
	if se.core.PMC().Get(pmc.Rollbacks) == 0 {
		t.Error("type D should count a rollback")
	}
}

// TestStldTimingSeparation is the Fig 2 property: the execution types
// cluster into distinct timing levels with H < C < stall types < rollbacks,
// and rollbacks exceed 240 cycles.
func TestStldTimingSeparation(t *testing.T) {
	se := newStldEnv(t, Config{})
	timeOf := map[predict.ExecType][]uint64{}
	record := func(aliasing bool) {
		cyc, ev := se.exec(aliasing)
		timeOf[ev[0].Type] = append(timeOf[ev[0].Type], cyc)
	}
	// Cover H, G, E via (n, a, 7n); C and D via PSF training (6 aliasing
	// runs drop C1 below the threshold); A/B/F via further sequences.
	for _, a := range boolSeq(1, -1, 7, -1, -6, 1, 7, -1, 7, -1, -6, 10) {
		record(a)
	}
	avg := func(ty predict.ExecType) uint64 {
		v := timeOf[ty]
		if len(v) == 0 {
			return 0
		}
		var s uint64
		for _, x := range v {
			s += x
		}
		return s / uint64(len(v))
	}
	for _, ty := range []predict.ExecType{predict.TypeH, predict.TypeC, predict.TypeE, predict.TypeG, predict.TypeD} {
		if len(timeOf[ty]) == 0 {
			t.Fatalf("type %v never observed; got %v", ty, timeOf)
		}
	}
	h, c0, e0, g, d := avg(predict.TypeH), avg(predict.TypeC), avg(predict.TypeE), avg(predict.TypeG), avg(predict.TypeD)
	if !(h < c0 && c0 < e0 && e0 < g && e0 < d) {
		t.Errorf("timing order violated: H=%d C=%d E=%d G=%d D=%d", h, c0, e0, g, d)
	}
	if g < 240 || d < 240 {
		t.Errorf("rollback types must exceed 240 cycles: G=%d D=%d", g, d)
	}
	// Within-type timing must be stable (deterministic simulator).
	for ty, v := range timeOf {
		for _, x := range v {
			if x != v[0] {
				t.Errorf("type %v times unstable: %v", ty, v)
				break
			}
		}
	}
}

// TestStldPMCPattern checks the Fig 2 PMC signature: rollback types show
// extra load dispatches and instruction fetches relative to clean types.
func TestStldPMCPattern(t *testing.T) {
	se := newStldEnv(t, Config{})
	counts := func(aliasing bool) (ld, itlb, stall uint64) {
		before := se.core.PMC().Snapshot()
		se.exec(aliasing)
		d := se.core.PMC().Delta(before)
		return d.Get(pmc.LdDispatch), d.Get(pmc.ITLBHit4K), d.Get(pmc.SQStallCycles)
	}
	ldH, itlbH, stallH := counts(false) // H
	ldG, itlbG, _ := counts(true)       // G rollback
	if ldG <= ldH {
		t.Errorf("G should re-dispatch the load: %d vs %d", ldG, ldH)
	}
	if itlbG <= itlbH {
		t.Errorf("G should refetch: itlb %d vs %d", itlbG, itlbH)
	}
	_, _, stallE := counts(false) // E: stall
	if stallE == 0 {
		t.Error("E should accumulate SQ stall cycles")
	}
	if stallH != 0 {
		t.Errorf("H should not stall, got %d", stallH)
	}
}

// TestStldSSBD checks Section VI-A through the pipeline: with SSBD on, every
// n is an E and every a is an A, with no rollbacks and no fast paths.
func TestStldSSBD(t *testing.T) {
	se := newStldEnv(t, Config{})
	se.setSSBD()
	types := se.phi(boolSeq(3, -3, 2, -2))
	for i, ty := range types {
		want := predict.TypeE
		if i >= 3 && i < 6 || i >= 8 {
			want = predict.TypeA
		}
		if ty != want {
			t.Errorf("step %d: %v, want %v", i, ty, want)
		}
	}
	if se.core.PMC().Get(pmc.Rollbacks) != 0 {
		t.Error("SSBD must prevent rollbacks")
	}
	if se.core.PMC().Get(pmc.Bypasses) != 0 {
		t.Error("SSBD must prevent bypasses")
	}
}

// TestStldSSBDSlowdown: SSBD makes the non-aliasing fast path slow (the Fig
// 12 overhead mechanism).
func TestStldSSBDSlowdown(t *testing.T) {
	se := newStldEnv(t, Config{})
	fast, _ := se.exec(false) // H
	se.setSSBD()
	slow, _ := se.exec(false) // E under SSBD
	if slow <= fast+20 {
		t.Errorf("SSBD slowdown invisible: %d vs %d", slow, fast)
	}
}

// TestStldIntelBaseline runs the stld against the Intel-style MDU to show
// the baseline trains differently (needs saturation before bypassing).
func TestStldIntelBaseline(t *testing.T) {
	phys := mem.NewPhysical()
	ch := cache.New(cache.DefaultConfig())
	mdu := predict.NewIntelMDU()
	core := New(Config{}, phys, ch, mdu, &pmc.Counters{})
	as := mem.NewAddrSpace()
	e := &env{phys: phys, as: as, ch: ch, core: core}
	s := asm.BuildStld(asm.StldOptions{})
	e.mapCode(codeBase, s.Code)
	e.mapData(dataBase, 2*mem.PageSize)
	se := &stldEnv{env: e, s: s, entry: codeBase}
	// Cold MDU stalls: expect E for non-aliasing runs until saturation (15),
	// then H.
	types := se.phi(boolSeq(20))
	for i := 0; i < 15; i++ {
		if types[i] != predict.TypeE {
			t.Fatalf("step %d: %v, want E (conservative)", i, types[i])
		}
	}
	for i := 15; i < 20; i++ {
		if types[i] != predict.TypeH {
			t.Fatalf("step %d: %v, want H (saturated)", i, types[i])
		}
	}
}
