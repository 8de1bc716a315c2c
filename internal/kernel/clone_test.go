package kernel

import (
	"reflect"
	"testing"

	"zenspec/internal/asm"
	"zenspec/internal/cache"
	"zenspec/internal/isa"
	"zenspec/internal/mem"
	"zenspec/internal/pipeline"
	"zenspec/internal/pmc"
	"zenspec/internal/predict"
)

// machineTrace is what driving a machine showed, and the state it left.
type machineTrace struct {
	Runs   []pipeline.RunResult
	Regs   [][isa.NumRegs]uint64
	Data   []uint64
	PMCs   []pmc.Counters
	Cycles []int64
	Stats  []predict.Stats
	Cache  cache.Stats
	BusNow int64
}

// driveMachine runs a branchy loop that loads and stores in the user
// process on CPU 0, an stld in the kernel process on CPU 1, and both again,
// so a second call sees the TLBs, caches, branch predictor and predictor
// entries the first left behind.
func driveMachine(t *testing.T, k *Kernel) machineTrace {
	t.Helper()
	user, kern := k.Process(1), k.Process(2)
	var tr machineTrace
	run := func(cpu int, p *Process, aliasing bool) {
		p.Regs = [isa.NumRegs]uint64{}
		p.Regs[isa.RDI], p.Regs[isa.RSI], p.Regs[isa.R9] = dataBase, dataBase+0x800, 3
		if aliasing {
			p.Regs[isa.RSI] = dataBase
		}
		res := k.RunOn(cpu, p, codeBase, 0)
		if res.Stop != pipeline.StopHalt {
			t.Fatalf("run stopped with %v", res.Stop)
		}
		res.Stlds = append([]pipeline.StldEvent(nil), res.Stlds...)
		tr.Runs = append(tr.Runs, res)
		tr.Regs = append(tr.Regs, p.Regs)
		tr.Data = append(tr.Data, read64(p, dataBase), read64(p, dataBase+8))
	}
	for i := 0; i < 2; i++ {
		run(0, user, i == 1)
		run(1, kern, i == 0)
		run(1, kern, true)
	}
	for i := range k.cpus {
		tr.PMCs = append(tr.PMCs, k.CPU(i).Core.PMC().Snapshot())
		tr.Cycles = append(tr.Cycles, k.CPU(i).Core.Cycle())
		tr.Stats = append(tr.Stats, k.CPU(i).Unit.Stats())
	}
	tr.Cache = k.Caches().Stats()
	tr.BusNow = k.Bus().Now()
	return tr
}

// TestCloneContinuesLikeOriginal drives a machine, clones it under its own
// configuration, and drives both the same way again: the clone must
// continue exactly as the original does, from the bus clock on.
func TestCloneContinuesLikeOriginal(t *testing.T) {
	for _, cfg := range []Config{{Seed: 5}, {Seed: 5, FlushSSBPOnSwitch: true, TimerQuantum: 40}} {
		k := New(cfg)
		user := k.NewProcess("user", DomainUser)
		b := asm.NewBuilder().Movi(isa.RCX, 5).Label("loop")
		b.Load(isa.R8, isa.RSI, 0).Store(isa.RDI, 8, isa.R8).Subi(isa.RCX, isa.RCX, 1).Jnz(isa.RCX, "loop")
		user.MapCode(codeBase, b.Halt().MustAssemble(codeBase))
		user.MapData(dataBase, 2*mem.PageSize)
		setupStldProc(t, k, "kern", DomainKernel)
		driveMachine(t, k)

		c := k.Clone(cfg)
		if c.Bus().Now() != k.Bus().Now() {
			t.Fatalf("bus clock: clone %d, original %d", c.Bus().Now(), k.Bus().Now())
		}
		if got, want := driveMachine(t, c), driveMachine(t, k); !reflect.DeepEqual(got, want) {
			t.Fatalf("%+v: clone diverged from its original:\nclone %+v\norig  %+v", cfg, got, want)
		}
	}
}
