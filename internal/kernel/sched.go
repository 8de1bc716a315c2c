package kernel

import (
	"fmt"

	"zenspec/internal/pipeline"
)

// TaskState is a scheduled task's lifecycle state.
type TaskState uint8

// Task states.
const (
	TaskRunnable TaskState = iota
	TaskDone
	TaskFaulted
)

func (s TaskState) String() string {
	switch s {
	case TaskRunnable:
		return "runnable"
	case TaskDone:
		return "done"
	case TaskFaulted:
		return "faulted"
	}
	return "state?"
}

// Task is one schedulable program: a process plus a resume point.
type Task struct {
	Proc  *Process
	State TaskState
	// PC is the resume point (entry at spawn, then wherever the last
	// timeslice ended).
	PC uint64
	// Insts accumulates retired instructions across slices.
	Insts uint64
	// Slices counts timeslices consumed.
	Slices int
	// Result holds the final run result once the task is done or faulted.
	Result pipeline.RunResult
}

// Scheduler runs tasks round-robin on one hardware thread with an
// instruction-count timeslice. Every slice boundary is a context switch,
// with the full flush semantics (PSFP lost, SSBP kept) — the preemption that
// real measurements implicitly contain and that the Fig 11 victim relies on.
type Scheduler struct {
	k       *Kernel
	cpu     int
	quantum uint64
	tasks   []*Task
}

// NewScheduler creates a scheduler on hardware thread cpu with the given
// timeslice in retired instructions (0 means 1000).
func (k *Kernel) NewScheduler(cpu int, quantum uint64) *Scheduler {
	if quantum == 0 {
		quantum = 1000
	}
	return &Scheduler{k: k, cpu: cpu, quantum: quantum}
}

// Spawn queues a program.
func (s *Scheduler) Spawn(p *Process, entry uint64) *Task {
	t := &Task{Proc: p, PC: entry}
	s.tasks = append(s.tasks, t)
	return t
}

// Runnable reports whether any task still wants CPU.
func (s *Scheduler) Runnable() bool {
	for _, t := range s.tasks {
		if t.State == TaskRunnable {
			return true
		}
	}
	return false
}

// Step gives every runnable task one timeslice, in order. It returns the
// number of tasks that ran.
func (s *Scheduler) Step() int {
	ran := 0
	for _, t := range s.tasks {
		if t.State != TaskRunnable {
			continue
		}
		ran++
		t.Slices++
		res := s.k.RunOn(s.cpu, t.Proc, t.PC, s.quantum)
		t.Insts += res.Insts
		switch res.Stop {
		case pipeline.StopInstLimit:
			t.PC = res.EndPC // preempted; resume here next slice
		case pipeline.StopHalt:
			t.State = TaskDone
			t.Result = res
		default:
			t.State = TaskFaulted
			t.Result = res
		}
	}
	return ran
}

// Run steps until every task is done or maxSlices rounds elapse. It returns
// an error when the budget runs out with work remaining.
func (s *Scheduler) Run(maxSlices int) error {
	for round := 0; round < maxSlices; round++ {
		if s.Step() == 0 {
			return nil
		}
	}
	if s.Runnable() {
		return fmt.Errorf("kernel: scheduler budget exhausted with runnable tasks")
	}
	return nil
}
