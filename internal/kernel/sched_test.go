package kernel

import (
	"testing"

	"zenspec/internal/asm"
	"zenspec/internal/isa"
	"zenspec/internal/mem"
	"zenspec/internal/pipeline"
)

// counterProg builds: for rcx iterations { mem[r15] += 1 }; halt.
func counterProg(iters int32) []byte {
	b := asm.NewBuilder()
	b.Movi(isa.RCX, iters)
	b.Label("loop")
	b.Load(isa.RAX, isa.R15, 0)
	b.Addi(isa.RAX, isa.RAX, 1)
	b.Store(isa.R15, 0, isa.RAX)
	b.Subi(isa.RCX, isa.RCX, 1)
	b.Jnz(isa.RCX, "loop")
	b.Halt()
	return b.MustAssemble(codeBase)
}

func TestSchedulerInterleavesTasks(t *testing.T) {
	k := New(Config{Seed: 1})
	sched := k.NewScheduler(0, 50) // ~10 loop iterations per slice
	var tasks []*Task
	for i := 0; i < 3; i++ {
		p := k.NewProcess("task", DomainUser)
		p.MapCode(codeBase, counterProg(100))
		p.MapData(dataBase, mem.PageSize)
		p.Regs[isa.R15] = dataBase
		tasks = append(tasks, sched.Spawn(p, codeBase))
	}
	if err := sched.Run(200); err != nil {
		t.Fatal(err)
	}
	for i, task := range tasks {
		if task.State != TaskDone {
			t.Errorf("task %d state %v", i, task.State)
		}
		if task.Slices < 2 {
			t.Errorf("task %d ran in %d slices; the quantum should preempt it", i, task.Slices)
		}
		if got := read64(task.Proc, dataBase); got != 100 {
			t.Errorf("task %d counted to %d, want 100", i, got)
		}
		if task.Insts == 0 {
			t.Errorf("task %d has no instruction accounting", i)
		}
	}
}

func TestSchedulerPreemptionFlushesPSFP(t *testing.T) {
	k := New(Config{Seed: 1})
	// Task A trains its PSFP entry; task B is just a spin loop. With both
	// scheduled, A's PSFP state cannot survive into its next slice.
	victim, s := setupStldProc(t, k, "victim", DomainUser)
	trainStld(t, k, 0, victim, codeBase)
	q := stldQuery(victim, s, codeBase)
	if c := k.CPU(0).Unit.PeekCounters(q); c.C0 == 0 {
		t.Fatal("training failed")
	}
	other := k.NewProcess("other", DomainUser)
	other.MapCode(codeBase, counterProg(5))
	other.MapData(dataBase, mem.PageSize)
	other.Regs[isa.R15] = dataBase
	sched := k.NewScheduler(0, 100)
	sched.Spawn(other, codeBase)
	if err := sched.Run(10); err != nil {
		t.Fatal(err)
	}
	c := k.CPU(0).Unit.PeekCounters(q)
	if c.C0 != 0 {
		t.Error("PSFP survived a scheduled context switch")
	}
	if c.C3 == 0 {
		t.Error("SSBP should survive scheduling")
	}
}

func TestSchedulerFaultingTask(t *testing.T) {
	k := New(Config{Seed: 1})
	p := k.NewProcess("crash", DomainUser)
	b := asm.NewBuilder()
	b.Load(isa.RAX, isa.RDI, 0).Halt()
	p.MapCode(codeBase, b.MustAssemble(codeBase))
	p.Regs[isa.RDI] = 0xdead0000
	sched := k.NewScheduler(0, 100)
	task := sched.Spawn(p, codeBase)
	if err := sched.Run(5); err != nil {
		t.Fatal(err)
	}
	if task.State != TaskFaulted {
		t.Fatalf("state %v", task.State)
	}
	if task.Result.Stop != pipeline.StopFault || task.Result.FaultVA != 0xdead0000 {
		t.Errorf("result %+v", task.Result)
	}
}

func TestSchedulerBudgetExhaustion(t *testing.T) {
	k := New(Config{Seed: 1})
	p := k.NewProcess("spin", DomainUser)
	b := asm.NewBuilder()
	b.Label("spin")
	b.Jmp("spin")
	p.MapCode(codeBase, b.MustAssemble(codeBase))
	sched := k.NewScheduler(0, 50)
	sched.Spawn(p, codeBase)
	if err := sched.Run(3); err == nil {
		t.Error("infinite loop should exhaust the budget")
	}
}

func TestTaskStateStrings(t *testing.T) {
	for s, want := range map[TaskState]string{TaskRunnable: "runnable", TaskDone: "done", TaskFaulted: "faulted"} {
		if s.String() != want {
			t.Errorf("%d -> %q", s, s.String())
		}
	}
	if TaskState(9).String() == "" {
		t.Error("unknown state should print")
	}
	k := New(Config{Seed: 1})
	sched := k.NewScheduler(0, 0)
	if len(sched.tasks) != 0 || sched.Runnable() {
		t.Error("fresh scheduler state")
	}
}
