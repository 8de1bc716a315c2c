package prof

import (
	"bytes"
	"encoding/json"
	"math/rand"
	"strings"
	"sync"
	"testing"

	"zenspec/internal/isa"
	"zenspec/internal/obs"
)

func inst(pc uint64, op isa.Op, dispatch, issue, complete, sqStall, replay, retiredBy int64) obs.InstEvent {
	return obs.InstEvent{
		PC: pc, Inst: isa.Inst{Op: op},
		Dispatch: dispatch, Issue: issue, Complete: complete,
		SQStall: sqStall, Replay: replay, RetiredBy: retiredBy,
	}
}

func TestBreakdownPartition(t *testing.T) {
	p := New()
	// dispatch 10, issue 12, complete 40, sq-stall 20, retire by 45:
	// issue-wait 2, sq-stall 20, execute 40-12-20=8, retire 5.
	p.HandleEvent(inst(0x400028, isa.LOAD, 10, 12, 40, 20, 0, 45))
	s := p.Snapshot()
	if len(s.Samples) != 1 {
		t.Fatalf("samples = %d", len(s.Samples))
	}
	x := s.Samples[0]
	if x.Issue != 2 || x.SQStall != 20 || x.Execute != 8 || x.Retire != 5 || x.Replay != 0 {
		t.Errorf("breakdown = %+v", x)
	}
	if x.Cycles() != 35 || s.TotalCycles != 35 {
		t.Errorf("cycles = %d, total = %d, want 35", x.Cycles(), s.TotalCycles)
	}
	if x.Count != 1 || x.Transient != 0 {
		t.Errorf("counts = %d/%d", x.Count, x.Transient)
	}
}

func TestKeyIncludesOp(t *testing.T) {
	p := New()
	p.HandleEvent(inst(0x400000, isa.LOAD, 0, 0, 4, 0, 0, 4))
	p.HandleEvent(inst(0x400000, isa.STORE, 0, 0, 4, 0, 0, 4))
	if s := p.Snapshot(); len(s.Samples) != 2 {
		t.Fatalf("same-PC different-op must stay separate, got %d samples", len(s.Samples))
	}
}

// TestSitesMatchNaiveFold folds runs of instructions into one profile from
// two goroutines, interleaving their batches, and compares the snapshot with
// a plain map fold sorted by (PC, op name). The runs step through code at
// byte granularity, as sliding does, put up to eight opcodes at one PC,
// cross page boundaries and spread over far-apart pages, up to the last PC
// below 2^64.
func TestSitesMatchNaiveFold(t *testing.T) {
	ops := []isa.Op{isa.LOAD, isa.STORE, isa.ADD, isa.NOP, isa.JNZ, isa.IMUL, isa.MOVI, isa.XOR}
	starts := []uint64{0x400000, 0x400f80, 0x401ff9, 0x7ffffffff000 - 200, 1 << 63, ^uint64(0) - 7 - 900}
	r := rand.New(rand.NewSource(1))
	var runs [][]obs.InstEvent
	for i := 0; i < 400; i++ {
		pc := starts[r.Intn(len(starts))] + uint64(r.Intn(900))
		var run []obs.InstEvent
		for n := 1 + r.Intn(300); n > 0; n-- {
			d := int64(r.Intn(50))
			// No span is negative, so the partition needs no clamping: issue
			// wait 0-2, SQ stall 0-1, execute the rest of 9, retire 3.
			ev := inst(pc, ops[r.Intn(len(ops))], d, d+int64(r.Intn(3)), d+9, int64(r.Intn(2)), 0, d+12)
			ev.Transient = r.Intn(5) == 0
			run = append(run, ev)
			if r.Intn(4) > 0 {
				step := uint64(1 + r.Intn(8))
				if pc > ^uint64(0)-7-step {
					break
				}
				pc += step
			}
		}
		runs = append(runs, run)
	}
	// A probe slid one byte at a time, every opcode at every offset.
	var slide []obs.InstEvent
	for off := uint64(0); off < 8; off++ {
		for _, op := range ops {
			slide = append(slide, inst(0x402000+off, op, 0, 1, 9, 0, 0, 12))
		}
	}
	runs = append(runs, slide, slide)

	p := New()
	var wg sync.WaitGroup
	for g := 0; g < 2; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := g; i < len(runs); i += 2 {
				if i%3 == 0 {
					for j := range runs[i] {
						p.HandleInst(&runs[i][j])
					}
				} else {
					p.HandleInsts(runs[i])
				}
			}
		}()
	}
	want := map[Key]Sample{}
	for _, run := range runs {
		for _, ev := range run {
			k := Key{ev.PC, ev.Inst.Op}
			w := want[k]
			w.PC, w.Op = ev.PC, ev.Inst.Op.String()
			if ev.Transient {
				w.Transient++
			} else {
				w.Count++
				w.Retire += ev.RetiredBy - ev.Complete
			}
			w.Issue += ev.Issue - ev.Dispatch
			w.Execute += ev.Complete - ev.Issue - ev.SQStall
			w.SQStall += ev.SQStall
			want[k] = w
		}
	}
	wg.Wait()
	ref := &Snapshot{}
	for _, x := range want {
		ref.Samples = append(ref.Samples, x)
	}
	ref.sortAndTotal()
	got, err := json.Marshal(p.Snapshot())
	if err != nil {
		t.Fatal(err)
	}
	exp, err := json.Marshal(ref)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, exp) {
		t.Fatalf("profile of %d sites differs from the naive fold", len(want))
	}
}

func TestSquashTable(t *testing.T) {
	p := New()
	p.HandleEvent(obs.SquashEvent{Kind: obs.SquashBypass, PC: 0x400028, Start: 10, Verify: 60, Penalty: 200, Insts: 7})
	p.HandleEvent(obs.SquashEvent{Kind: obs.SquashBypass, PC: 0x400028, Start: 100, Verify: 150, Penalty: 200, Insts: 3})
	p.HandleEvent(obs.SquashEvent{Kind: obs.SquashBranch, PC: 0x400028, Start: 0, Verify: 10, Penalty: 14, Insts: 1})
	s := p.Snapshot()
	if len(s.Squashes) != 2 {
		t.Fatalf("squash sites = %d, want 2 (kinds kept separate)", len(s.Squashes))
	}
	q := s.Squashes[1] // sorted by (PC, Kind): branch < bypass alphabetically? No — by Kind string.
	for _, q2 := range s.Squashes {
		if q2.Kind == obs.SquashBypass.String() {
			q = q2
		}
	}
	if q.Count != 2 || q.Window != 100 || q.Penalty != 400 || q.Insts != 10 {
		t.Errorf("bypass site = %+v", q)
	}
}

// TestMergeCommutes asserts a∪b == b∪a and that merged JSON equals the
// one-profile result, the property the harness's worker-count determinism
// rests on.
func TestMergeCommutes(t *testing.T) {
	evs := []obs.Event{
		inst(0x400000, isa.MOVI, 0, 0, 1, 0, 0, 1),
		inst(0x400008, isa.LOAD, 1, 2, 30, 10, 0, 31),
		inst(0x400008, isa.LOAD, 40, 41, 50, 0, 0, 51),
		obs.SquashEvent{Kind: obs.SquashPSF, PC: 0x400008, Start: 1, Verify: 9, Penalty: 200, Insts: 2},
	}
	one := New()
	a, b := New(), New()
	for i, e := range evs {
		one.HandleEvent(e)
		if i%2 == 0 {
			a.HandleEvent(e)
		} else {
			b.HandleEvent(e)
		}
	}
	ab := a.Snapshot()
	ab.Merge(b.Snapshot())
	ba := b.Snapshot()
	ba.Merge(a.Snapshot())
	want, _ := json.Marshal(one.Snapshot())
	gotAB, _ := json.Marshal(ab)
	gotBA, _ := json.Marshal(ba)
	if !bytes.Equal(gotAB, want) {
		t.Errorf("a∪b = %s\nwant   %s", gotAB, want)
	}
	if !bytes.Equal(gotBA, gotAB) {
		t.Errorf("merge does not commute:\nb∪a = %s\na∪b = %s", gotBA, gotAB)
	}
}

// TestConcurrentHandleEvent hammers one Profile from many goroutines, over
// sites shared by all of them and sites of their own (so the site table grows
// while others fold and snapshot), and checks the totals; run with -race this
// also proves the locking.
func TestConcurrentHandleEvent(t *testing.T) {
	p := New()
	var wg sync.WaitGroup
	const workers, per = 8, 100
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < per; i++ {
				p.HandleEvent(inst(0x400000, isa.NOP, 0, 0, 1, 0, 0, 1))
				own := inst(0x500000+uint64(w*per+i)*4, isa.LOAD, 0, 0, 1, 0, 0, 1)
				p.HandleInst(&own)
				if i%20 == 0 {
					p.Snapshot()
				}
			}
		}()
	}
	wg.Wait()
	s := p.Snapshot()
	if len(s.Samples) != 1+workers*per || s.Samples[0].Count != workers*per {
		t.Errorf("%d samples, first %+v; want %d, the first counted %d times", len(s.Samples), s.Samples[0], 1+workers*per, workers*per)
	}
}

func TestTopOrderAndText(t *testing.T) {
	p := New()
	p.HandleEvent(inst(0x400000, isa.NOP, 0, 0, 1, 0, 0, 1))
	p.HandleEvent(inst(0x400028, isa.LOAD, 0, 2, 90, 70, 0, 91))
	p.HandleEvent(inst(0x400010, isa.IMUL, 0, 0, 5, 0, 0, 6))
	top := p.Snapshot().Top(2)
	if len(top) != 2 || top[0].PC != 0x400028 || top[1].PC != 0x400010 {
		t.Fatalf("top = %+v", top)
	}
	txt := p.Snapshot().Text(10)
	if !strings.Contains(txt, "sq_stall") || !strings.Contains(txt, "0x400028") {
		t.Errorf("text missing expected columns:\n%s", txt)
	}
}

// TestPprofRoundTrip writes a snapshot as pprof protobuf and parses it back,
// checking names, the value schema, and byte determinism.
func TestPprofRoundTrip(t *testing.T) {
	p := New()
	p.HandleEvent(inst(0x400028, isa.LOAD, 10, 12, 40, 20, 0, 45))
	p.HandleEvent(inst(0x400000, isa.MOVI, 0, 0, 1, 0, 0, 1))
	s := p.Snapshot()

	var buf1, buf2 bytes.Buffer
	if err := s.WritePprof(&buf1); err != nil {
		t.Fatal(err)
	}
	if err := s.WritePprof(&buf2); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf1.Bytes(), buf2.Bytes()) {
		t.Error("pprof bytes are not deterministic")
	}

	got, err := parsePprof(bytes.NewReader(buf1.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	vals, ok := got["load@0x400028"]
	if !ok {
		t.Fatalf("missing load sample; have %v", got)
	}
	// sampleTypes order: samples, cycles, issue_wait, execute, sq_stall, replay, retire_wait.
	want := []int64{1, 35, 2, 8, 20, 0, 5}
	if len(vals) != len(want) {
		t.Fatalf("values = %v, want %v", vals, want)
	}
	for i := range want {
		if vals[i] != want[i] {
			t.Errorf("value[%d] = %d, want %d (schema %v)", i, vals[i], want[i], sampleTypes[i])
		}
	}
}

func TestFlameOutput(t *testing.T) {
	p := New()
	p.HandleEvent(inst(0x400028, isa.LOAD, 0, 0, 40, 30, 0, 40))
	p.HandleEvent(inst(0x400000, isa.NOP, 0, 0, 1, 0, 0, 1))
	var buf bytes.Buffer
	if err := p.Snapshot().WriteFlame(&buf); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 2 {
		t.Fatalf("flame lines = %q", lines)
	}
	if lines[0] != "load@0x400028 40" {
		t.Errorf("hottest line = %q", lines[0])
	}
}
