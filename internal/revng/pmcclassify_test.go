package revng

import (
	"math/rand"
	"testing"

	"zenspec/internal/predict"
)

// runPMC executes the stld once and classifies it from the PMC delta alone,
// the way Fig2 types each execution.
func runPMC(s *Stld, aliasing bool) (Observation, PMCClass) {
	counters := s.lab.K.CPU(s.cpu).Core.PMC()
	before := counters.Snapshot()
	ob := s.Run(aliasing)
	return ob, ClassifyPMC(counters.Delta(before))
}

// TestPMCClassifierMatchesGroundTruth: over long random sequences, the
// counter-based classifier always agrees with the simulator's ground truth,
// which is the Fig 2 attribution methodology validated end to end.
func TestPMCClassifierMatchesGroundTruth(t *testing.T) {
	l := NewLab(baseCfg())
	s := l.PlaceStld()
	r := rand.New(rand.NewSource(8))
	counts := map[PMCClass]int{}
	for i := 0; i < 400; i++ {
		if i%97 == 0 {
			l.Tick() // occasional preemption diversifies the visited states
		}
		ob, cls := runPMC(s, r.Intn(2) == 0)
		if !cls.Matches(ob.TrueType) {
			t.Fatalf("step %d: PMC says %v, ground truth %v (%d cycles)",
				i, cls, ob.TrueType, ob.Cycles)
		}
		counts[cls]++
	}
	// Random 50/50 inputs rarely enable PSF (C1 drifts up by +4 per n and
	// only -1 per a), so drive the C and D verdicts with the scripted
	// PSF-enabling sequence.
	for i := 0; i < 40; i++ {
		s.Run(false)
	}
	for _, a := range Seq(7, -1, -6) {
		ob, cls := runPMC(s, a)
		if !cls.Matches(ob.TrueType) {
			t.Fatalf("scripted: PMC says %v, truth %v", cls, ob.TrueType)
		}
		counts[cls]++
	}
	ob, cls := runPMC(s, false) // PSF enabled, non-aliasing: type D
	if !cls.Matches(ob.TrueType) {
		t.Fatalf("D step: PMC says %v, truth %v", cls, ob.TrueType)
	}
	counts[cls]++
	// The sweep must have exercised all six distinguishable verdicts.
	for _, want := range []PMCClass{PMCFastBypass, PMCBypassRollback,
		PMCForward, PMCForwardRollback, PMCStallForward, PMCStallCache} {
		if counts[want] == 0 {
			t.Errorf("verdict %v never produced (distribution %v)", want, counts)
		}
	}
}

// TestPMCClassifierSplitsTimingTies: types A/B and E/F share timing but the
// classifier separates the forward-vs-cache distinction that timing alone
// cannot.
func TestPMCClassifierSplitsTimingTies(t *testing.T) {
	l := NewLab(baseCfg())
	s := l.PlaceStld()
	s.Phi(Seq(7, -1))             // predicted aliasing
	obA, clsA := runPMC(s, true)  // truth aliasing: A (stall + STLF)
	obE, clsE := runPMC(s, false) // truth non-aliasing: E (stall + cache)
	if clsA != PMCStallForward {
		t.Errorf("aliasing stall classified %v", clsA)
	}
	if clsE != PMCStallCache {
		t.Errorf("non-aliasing stall classified %v", clsE)
	}
	// Their timing classes are both "stall": the PMC adds information.
	if obA.Class != ClassStall && obE.Class != ClassStall {
		t.Errorf("timing classes %v/%v", obA.Class, obE.Class)
	}
}

func TestPMCClassStrings(t *testing.T) {
	for _, c := range []PMCClass{PMCFastBypass, PMCBypassRollback, PMCForward,
		PMCForwardRollback, PMCStallForward, PMCStallCache, PMCUnknown} {
		if c.String() == "" {
			t.Error("empty verdict name")
		}
	}
	if PMCUnknown.Matches(predict.TypeH) {
		t.Error("unknown matches nothing")
	}
}
