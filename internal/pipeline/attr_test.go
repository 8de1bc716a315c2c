package pipeline

import (
	"testing"

	"zenspec/internal/asm"
	"zenspec/internal/isa"
	"zenspec/internal/mem"
	"zenspec/internal/obs"
	"zenspec/internal/pmc"
	"zenspec/internal/predict"
)

// instTap subscribes to a core's bus and accumulates instruction and squash
// events; tests clear the slices between runs.
type instTap struct {
	insts    []obs.InstEvent
	squashes []obs.SquashEvent
	pmcs     []obs.PMCEvent
}

func (tap *instTap) attach(c *Core) {
	c.AttachBus(obs.NewBus(), 0)
	c.bus.Subscribe(obs.ObserverFunc(func(ev obs.Event) {
		switch e := ev.(type) {
		case obs.InstEvent:
			tap.insts = append(tap.insts, e)
		case obs.SquashEvent:
			tap.squashes = append(tap.squashes, e)
		case obs.PMCEvent:
			tap.pmcs = append(tap.pmcs, e)
		}
	}), obs.Options{})
}

func (tap *instTap) reset() {
	tap.insts = tap.insts[:0]
	tap.squashes = tap.squashes[:0]
	tap.pmcs = tap.pmcs[:0]
}

// loadAt returns the single retired LOAD event at pc, failing otherwise.
func (tap *instTap) loadAt(t *testing.T, pc uint64) obs.InstEvent {
	t.Helper()
	var out []obs.InstEvent
	for _, ie := range tap.insts {
		if ie.Inst.Op == isa.LOAD && ie.PC == pc && !ie.Transient {
			out = append(out, ie)
		}
	}
	if len(out) != 1 {
		t.Fatalf("saw %d retired loads at %#x, want 1", len(out), pc)
	}
	return out[0]
}

// TestAttrStampsOrdered asserts the per-instruction attribution invariant
// dispatch <= issue <= complete <= retiredBy on a plain program.
func TestAttrStampsOrdered(t *testing.T) {
	e := newEnv(t, Config{})
	var tap instTap
	tap.attach(e.core)
	b, err := asm.Parse(`
		movi rdi, 0x10000
		movi rax, 7
		movi rcx, 5
		imul rdx, rax, rcx
		add  rdx, rdx, rax
		store [rdi], rdx
		load rsi, [rdi+256]  ; non-aliasing: the bypass verifies clean
		halt
	`)
	if err != nil {
		t.Fatal(err)
	}
	e.mapCode(codeBase, b.MustAssemble(codeBase))
	e.mapData(dataBase, mem.PageSize)
	var regs [isa.NumRegs]uint64
	res := e.run(codeBase, &regs)
	if res.Stop != StopHalt {
		t.Fatalf("run stopped with %v", res.Stop)
	}
	if len(tap.insts) == 0 {
		t.Fatal("no instruction events")
	}
	for _, ie := range tap.insts {
		if ie.Dispatch > ie.Issue || ie.Issue > ie.Complete {
			t.Errorf("%v at %#x: dispatch %d, issue %d, complete %d out of order",
				ie.Inst.Op, ie.PC, ie.Dispatch, ie.Issue, ie.Complete)
		}
		if ie.Complete > ie.RetiredBy {
			t.Errorf("%v at %#x: complete %d after retire frontier %d",
				ie.Inst.Op, ie.PC, ie.Complete, ie.RetiredBy)
		}
		if ie.SQStall != 0 || ie.Replay != 0 {
			t.Errorf("%v at %#x: unexpected stall attribution (sq %d, replay %d)",
				ie.Inst.Op, ie.PC, ie.SQStall, ie.Replay)
		}
	}
}

// TestAttrStallAndReplay drives the stld pair through φ(n, a, n): the first
// run bypasses cleanly (H — no stall, no replay), the second mispredicts and
// rolls back (G — replay cycles plus a bypass squash carrying the rollback
// penalty), and the third stalls conservatively (E — SQ-stall cycles on the
// victim load matching the SQ-stall PMC movement).
func TestAttrStallAndReplay(t *testing.T) {
	se := newStldEnv(t, Config{})
	var tap instTap
	tap.attach(se.core)
	loadPC := codeBase + uint64(se.s.LoadOff)

	// Run 1: non-aliasing, fresh predictor — type H, a clean bypass.
	if _, ev := se.exec(false); len(ev) != 1 || ev[0].Type != predict.TypeH {
		t.Fatalf("run 1 events %v, want one type H", ev)
	}
	if ld := tap.loadAt(t, loadPC); ld.SQStall != 0 || ld.Replay != 0 {
		t.Errorf("clean bypass charged stall cycles (sq %d, replay %d)", ld.SQStall, ld.Replay)
	}

	// Run 2: aliasing — type G, bypass rollback and replay.
	tap.reset()
	before := se.core.PMC().Snapshot()
	if _, ev := se.exec(true); len(ev) == 0 || ev[0].Type != predict.TypeG {
		t.Fatalf("run 2 events %v, want type G first", ev)
	}
	ld := tap.loadAt(t, loadPC)
	if ld.Replay <= rollbackPenalty {
		t.Errorf("type G load replay = %d, want > rollback penalty %d",
			ld.Replay, rollbackPenalty)
	}
	if ld.SQStall != 0 {
		t.Errorf("type G load charged SQ-stall %d, want 0", ld.SQStall)
	}
	if len(tap.squashes) != 1 {
		t.Fatalf("run 2 emitted %d squashes, want 1", len(tap.squashes))
	}
	sq := tap.squashes[0]
	if sq.Kind != obs.SquashBypass {
		t.Errorf("squash kind %v, want bypass", sq.Kind)
	}
	if sq.Penalty != rollbackPenalty {
		t.Errorf("squash penalty %d, want rollback penalty %d", sq.Penalty, rollbackPenalty)
	}
	if sq.PC != loadPC {
		t.Errorf("squash at %#x, want the victim load %#x", sq.PC, loadPC)
	}
	if d := se.core.PMC().Delta(before); d.Get(pmc.Rollbacks) != 1 {
		t.Errorf("rollback PMC delta = %d, want 1", d.Get(pmc.Rollbacks))
	}

	// Run 3: the trained predictor now stalls the load — type E.
	tap.reset()
	before = se.core.PMC().Snapshot()
	if _, ev := se.exec(false); len(ev) != 1 || ev[0].Type != predict.TypeE {
		t.Fatalf("run 3 events %v, want one type E", ev)
	}
	ld = tap.loadAt(t, loadPC)
	if ld.SQStall <= 0 {
		t.Fatalf("stalled load recorded SQStall %d, want > 0", ld.SQStall)
	}
	if ld.Replay != 0 {
		t.Errorf("stalled load charged replay %d, want 0", ld.Replay)
	}
	if d := se.core.PMC().Delta(before); d.Get(pmc.SQStallCycles) != uint64(ld.SQStall) {
		t.Errorf("per-PC stall %d disagrees with SQ-stall PMC delta %d",
			ld.SQStall, d.Get(pmc.SQStallCycles))
	}
}

// TestPMCEventMatchesCounters asserts the per-run PMCEvent delta equals the
// core's counter movement across exactly that run.
func TestPMCEventMatchesCounters(t *testing.T) {
	e := newEnv(t, Config{})
	var tap instTap
	tap.attach(e.core)
	b, err := asm.Parse(`
		movi rdi, 0x10000
		movi rax, 3
		store [rdi], rax
		load rcx, [rdi]
		halt
	`)
	if err != nil {
		t.Fatal(err)
	}
	e.mapCode(codeBase, b.MustAssemble(codeBase))
	e.mapData(dataBase, mem.PageSize)
	var regs [isa.NumRegs]uint64
	before := e.core.PMC().Snapshot()
	if res := e.run(codeBase, &regs); res.Stop != StopHalt {
		t.Fatalf("run stopped with %v", res.Stop)
	}
	delta := e.core.PMC().Delta(before)
	if len(tap.pmcs) != 1 {
		t.Fatalf("saw %d PMC events, want 1", len(tap.pmcs))
	}
	for _, pe := range pmc.Events() {
		if got, want := tap.pmcs[0].Counts.Get(pe), delta.Get(pe); got != want {
			t.Errorf("PMCEvent %s = %d, want delta %d", pe.Key(), got, want)
		}
	}
	if tap.pmcs[0].Counts.Get(pmc.RetiredOps) == 0 {
		t.Error("PMCEvent carries no retired ops; the readout is vacuous")
	}
}
