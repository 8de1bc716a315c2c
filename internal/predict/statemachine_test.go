package predict

import (
	"math/rand"
	"testing"
	"testing/quick"
)

// RunSequence applies a whole sequence of inputs (true = aliasing) and
// returns the resulting counters and per-step types — the φ(...) notation of
// the paper as a pure function of the state machine.
func RunSequence(c Counters, inputs []bool) (Counters, []ExecType) {
	types := make([]ExecType, len(inputs))
	for i, a := range inputs {
		c, types[i] = c.Update(a)
	}
	return c, types
}

// PredictedAliasing reports the prediction implied by the type.
func (t ExecType) PredictedAliasing() bool { return t != TypeG && t != TypeH }

// TruthAliasing reports the ground truth implied by the type.
func (t ExecType) TruthAliasing() bool {
	switch t {
	case TypeA, TypeB, TypeC, TypeG:
		return true
	}
	return false
}

// Valid reports whether every counter is within its saturation bounds.
func (c Counters) Valid() bool {
	return c.C0 >= 0 && c.C0 <= MaxC0 &&
		c.C1 >= 0 && c.C1 <= MaxC1 &&
		c.C2 >= 0 && c.C2 <= MaxC2 &&
		c.C3 >= 0 && c.C3 <= MaxC3 &&
		c.C4 >= 0 && c.C4 <= MaxC4
}

// seq converts a compact spec like "7n 1a" into inputs; helper for the φ
// notation. Each field is <count><n|a>.
func seq(counts ...int) []bool {
	// counts alternates: positive = n repeated, negative = a repeated.
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

// types converts a compact expected-type spec: pairs of (count, type).
func types(pairs ...interface{}) []ExecType {
	var out []ExecType
	for i := 0; i < len(pairs); i += 2 {
		n := pairs[i].(int)
		t := pairs[i+1].(ExecType)
		for j := 0; j < n; j++ {
			out = append(out, t)
		}
	}
	return out
}

func runPhi(t *testing.T, inputs []bool, want []ExecType) {
	t.Helper()
	_, got := RunSequence(Counters{}, inputs)
	if len(got) != len(want) {
		t.Fatalf("length mismatch: got %d types, want %d", len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("step %d: got %v, want %v (full: %v)", i, got[i], want[i], got)
		}
	}
}

// TestPhiPaperSequence1 is the paper's Section III-B2 example:
// φ(n,a,7n) = (H,G,4E,3H).
func TestPhiPaperSequence1(t *testing.T) {
	runPhi(t, seq(1, -1, 7), types(1, TypeH, 1, TypeG, 4, TypeE, 3, TypeH))
}

// TestPhiPaperSequence2 is the second Section III-B2 example:
// φ(a,4n,a,4n,a,16n) = (G,4E,G,4E,G,15F,H). This is the sequence that pins
// down both of our TABLE I corrections (C4 pre-increment, F decays C0).
func TestPhiPaperSequence2(t *testing.T) {
	runPhi(t, seq(-1, 4, -1, 4, -1, 16),
		types(1, TypeG, 4, TypeE, 1, TypeG, 4, TypeE, 1, TypeG, 15, TypeF, 1, TypeH))
}

// TestPhi7n1aTraining is the (7n,a) x3 prefix used throughout Sections III-IV:
// φ(7n,a,7n,a,7n,a) = (7H,G,4E,3H,G,4E,3H,G) and leaves C3=15, C4=3.
func TestPhi7n1aTraining(t *testing.T) {
	c, got := RunSequence(Counters{}, seq(7, -1, 7, -1, 7, -1))
	want := types(7, TypeH, 1, TypeG, 4, TypeE, 3, TypeH, 1, TypeG, 4, TypeE, 3, TypeH, 1, TypeG)
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("step %d: got %v want %v", i, got[i], want[i])
		}
	}
	if c.C3 != 15 || c.C4 != 3 {
		t.Errorf("after SSBP training: C3=%d C4=%d, want 15, 3", c.C3, c.C4)
	}
	if c.C0 != MaxC0 || c.C1 != MaxC1 || c.C2 != MaxC2 {
		t.Errorf("after training: C0=%d C1=%d C2=%d", c.C0, c.C1, c.C2)
	}
	// Probing with 32n must drain through F types back to H (the paper's
	// SSBP probe sequence).
	_, probe := RunSequence(c, seq(32))
	fCount, sawH := 0, false
	for _, ty := range probe {
		switch ty {
		case TypeF:
			fCount++
		case TypeH:
			sawH = true
		}
	}
	if fCount != 15 {
		t.Errorf("probe saw %d F types, want 15", fCount)
	}
	if !sawH {
		t.Error("probe never reached H")
	}
}

// TestPSFTrainingSequence is the Section IV-A PSFP training sequence
// (7n,a,7n,a,7n,5a,n,4a,n,3a): it must leave the pair predicted aliasing so
// that probing with 5n shows stall types before H (the isolation probe).
func TestPSFTrainingSequence(t *testing.T) {
	c, _ := RunSequence(Counters{}, seq(7, -1, 7, -1, 7, -5, 1, -4, 1, -3))
	if !c.PredictAliasing() {
		t.Fatalf("training left non-aliasing prediction: %+v", c)
	}
	_, probe := RunSequence(c, seq(5))
	stalls := 0
	for _, ty := range probe {
		if ty == TypeE || ty == TypeF {
			stalls++
		}
	}
	if stalls < 3 {
		t.Errorf("probe types %v: want >=3 stall types before H", probe)
	}
	if probe[len(probe)-1] == TypeE || probe[len(probe)-1] == TypeF {
		// With C0<=4 the 5th probe must no longer be driven by C0 alone.
		_, more := RunSequence(c, seq(40))
		if more[len(more)-1] != TypeH {
			t.Errorf("prediction never drains to H: %v", more)
		}
	}
}

// TestPSFEnableAfter4a checks Section III-B3: "The store forwarding becomes
// aggressive after executing at least (4a)" — from a trained state, aliasing
// executions drop C1 below 12 and PSF fires (type C on the next a, type D on
// the next n).
func TestPSFEnableAfter4a(t *testing.T) {
	c, _ := RunSequence(Counters{}, seq(7, -1)) // C0=4,C1=16,C2=2
	c, _ = RunSequence(c, seq(-5))              // 5 aliasing: C1 16->11
	if !c.PSFEnabled() {
		t.Fatalf("PSF should be enabled after 5a: %+v", c)
	}
	n, ty := c.Update(true)
	if ty != TypeC {
		t.Errorf("aliasing in PSF-enabled state: got %v, want C", ty)
	}
	_, ty = n.Update(false)
	if ty != TypeD {
		t.Errorf("non-aliasing in PSF-enabled state: got %v, want D (rollback)", ty)
	}
}

// TestBlockStateAfterTwoD checks "A block state is triggered after type D
// occurs twice": two D rollbacks exhaust C2 and pin the entry.
func TestBlockStateAfterTwoD(t *testing.T) {
	c, _ := RunSequence(Counters{}, seq(7, -1, -5)) // PSF enabled
	var ty ExecType
	dCount := 0
	for i := 0; i < 20 && dCount < 2; i++ {
		if c.PSFEnabled() {
			c, ty = c.Update(false)
			if ty != TypeD {
				t.Fatalf("expected D, got %v at %+v", ty, c)
			}
			dCount++
		} else {
			c, _ = c.Update(true) // re-enable PSF by dropping C1
		}
	}
	if c.C2 != 0 {
		t.Fatalf("after two Ds C2=%d, want 0 (block)", c.C2)
	}
	if c.State() != "Block" {
		t.Fatalf("state %q, want Block (%+v)", c.State(), c)
	}
	// Block state: no changes ever, φ(n)=E, φ(a)=A.
	n1, t1 := c.Update(false)
	n2, t2 := c.Update(true)
	if t1 != TypeE || t2 != TypeA {
		t.Errorf("block outcomes: n->%v a->%v, want E, A", t1, t2)
	}
	if n1 != c || n2 != c {
		t.Error("block state must not change counters")
	}
}

// TestTable1RowOutcomes spot-checks each TABLE I row's (type, update) pair.
func TestTable1RowOutcomes(t *testing.T) {
	tests := []struct {
		name     string
		c        Counters
		aliasing bool
		wantT    ExecType
		want     Counters
	}{
		{"init-n", Counters{}, false, TypeH, Counters{}},
		{"init-a", Counters{}, true, TypeG, Counters{C0: 4, C1: 16, C2: 2, C4: 1}},
		{"init-a-c4sat", Counters{C4: 2}, true, TypeG, Counters{C0: 4, C1: 16, C2: 2, C3: 15, C4: 3}},
		{"block-n", Counters{C0: 2, C1: 16}, false, TypeE, Counters{C0: 2, C1: 16}},
		{"block-a", Counters{C0: 2, C1: 16}, true, TypeA, Counters{C0: 2, C1: 16}},
		{"loadfromcache-n", Counters{C2: 2, C4: 1}, false, TypeH, Counters{C2: 2, C4: 1}},
		{"loadfromcache-a", Counters{C2: 2, C4: 1}, true, TypeG, Counters{C0: 4, C1: 16, C2: 2, C4: 2}},
		{"psfen-s1-n", Counters{C0: 3, C1: 8, C2: 2}, false, TypeD, Counters{C0: 2, C1: 12, C2: 1}},
		{"psfen-s1-a", Counters{C0: 3, C1: 8, C2: 2}, true, TypeC, Counters{C0: 3, C1: 7, C2: 2}},
		{"psfen-s1-a-c1cond", Counters{C0: 3, C1: 7, C2: 2}, true, TypeC, Counters{C0: 4, C1: 6, C2: 2}},
		{"psfdis-s1-n", Counters{C0: 3, C1: 16, C2: 2}, false, TypeE, Counters{C0: 2, C1: 16, C2: 2}},
		{"psfdis-s1-a", Counters{C0: 3, C1: 15, C2: 2}, true, TypeA, Counters{C0: 4, C1: 14, C2: 2}},
		{"psfdis-s2-n", Counters{C1: 16, C3: 5}, false, TypeF, Counters{C1: 16, C3: 4}},
		{"psfdis-s2-n-decaysC0", Counters{C0: 2, C1: 16, C2: 2, C3: 5}, false, TypeF, Counters{C0: 1, C1: 16, C2: 2, C3: 4}},
		{"psfdis-s2-a-c0zero", Counters{C1: 16, C3: 5}, true, TypeB, Counters{C1: 15, C3: 21}},
		{"psfdis-s2-a-c0pos", Counters{C0: 2, C1: 16, C2: 2, C3: 5}, true, TypeB, Counters{C0: 2, C1: 15, C2: 2, C3: 4}},
		// Note: row 7 (PSF Enabled S2) does not touch C2 — only the S1 row
		// consumes the PSF credit.
		{"psfen-s2-n", Counters{C0: 3, C1: 8, C2: 2, C3: 5}, false, TypeD, Counters{C0: 2, C1: 12, C2: 2, C3: 3}},
		{"psfen-s2-a", Counters{C0: 3, C1: 8, C2: 2, C3: 5}, true, TypeC, Counters{C0: 3, C1: 7, C2: 2, C3: 4}},
	}
	for _, tc := range tests {
		got, ty := tc.c.Update(tc.aliasing)
		if ty != tc.wantT {
			t.Errorf("%s: type %v, want %v", tc.name, ty, tc.wantT)
		}
		if got != tc.want {
			t.Errorf("%s: counters %+v, want %+v", tc.name, got, tc.want)
		}
	}
}

// TestUpdateInvariants property-checks counter bounds and type consistency
// over long random sequences (the paper's ">99.8% of random sequences"
// validation — our machine is the reference, so it must hold for 100%).
func TestUpdateInvariants(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		c := Counters{}
		for i := 0; i < 400; i++ {
			aliasing := r.Intn(2) == 0
			predA := c.PredictAliasing()
			psf := c.PSFEnabled()
			n, ty := c.Update(aliasing)
			if !n.Valid() {
				t.Logf("invalid counters %+v after %+v", n, c)
				return false
			}
			// The emitted type must agree with the prediction/truth split.
			if ty.PredictedAliasing() != predA || ty.TruthAliasing() != aliasing {
				t.Logf("type %v inconsistent: pred=%v truth=%v at %+v", ty, predA, aliasing, c)
				return false
			}
			// PSF fire types (C, D) exactly when PSFEnabled and predicted aliasing.
			psfType := ty == TypeC || ty == TypeD
			if psfType != (psf && predA) {
				t.Logf("PSF mismatch: type %v, psf=%v at %+v", ty, psf, c)
				return false
			}
			c = n
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// TestUpdateWithPresence checks the TABLE II C3-drain behaviour: an aliasing
// stall on a pair WITHOUT its own PSFP entry decrements C3, while a pair
// whose PSFP entry exists with C0=0 retrains C3 by +16. This is what makes
// φ(6a_0^1) = 6 stalls drain C3 from 15 to 9 in the paper's experiment.
func TestUpdateWithPresence(t *testing.T) {
	c := Counters{C1: 16, C3: 15}
	// No PSFP entry: each aliasing stall drains C3 by one.
	n, ty := c.UpdateWithPresence(true, false)
	if ty != TypeB || n.C3 != 14 {
		t.Errorf("absent entry: type %v C3 %d, want B, 14", ty, n.C3)
	}
	for i := 0; i < 5; i++ {
		n, _ = n.UpdateWithPresence(true, false)
	}
	if n.C3 != 9 {
		t.Errorf("after 6 a_0^1: C3 = %d, want 9", n.C3)
	}
	// Present entry with drained C0: the +16 retrain burst.
	n2, ty2 := c.UpdateWithPresence(true, true)
	if ty2 != TypeB || n2.C3 != 31 {
		t.Errorf("present entry, C0=0: type %v C3 %d, want B, 31", ty2, n2.C3)
	}
	// Present entry with C0>0: decrement.
	c3 := Counters{C0: 2, C1: 16, C2: 2, C3: 15}
	n3, _ := c3.UpdateWithPresence(true, true)
	if n3.C3 != 14 {
		t.Errorf("present entry, C0>0: C3 %d, want 14", n3.C3)
	}
}

// TestC3Saturation checks the C3 <= 32 footnote: repeated aliasing with
// C0 == 0 raises C3 by 16 but never beyond 32.
func TestC3Saturation(t *testing.T) {
	c := Counters{C1: 16, C3: 30}
	c, _ = c.Update(true)
	if c.C3 != 32 {
		t.Errorf("C3 = %d, want saturated 32", c.C3)
	}
	c, ty := c.Update(true)
	if c.C3 != 32 || ty != TypeB {
		t.Errorf("C3 = %d type %v, want 32, B", c.C3, ty)
	}
}

// TestDrainTimes checks the prose claims: "at least (4n) is required when C4
// is smaller than 3. Otherwise, at least (15n) is required if C4 reaches 3."
func TestDrainTimes(t *testing.T) {
	// C4 < 3: one G, then count n's until H.
	c, _ := RunSequence(Counters{}, seq(-1))
	n := 0
	for {
		var ty ExecType
		c, ty = c.Update(false)
		if ty == TypeH {
			break
		}
		n++
	}
	if n != 4 {
		t.Errorf("drain after single G took %d stalls, want 4", n)
	}
	// C4 == 3: the third G sets C3=15; drain needs 15.
	c, _ = RunSequence(Counters{}, seq(-1, 4, -1, 4, -1))
	n = 0
	for {
		var ty ExecType
		c, ty = c.Update(false)
		if ty == TypeH {
			break
		}
		n++
	}
	if n != 15 {
		t.Errorf("drain after third G took %d stalls, want 15", n)
	}
}

func TestExecTypeHelpers(t *testing.T) {
	if TypeH.String() != "H" || TypeA.String() != "A" {
		t.Error("String wrong")
	}
	if ExecType(99).String() == "" {
		t.Error("out-of-range type should print")
	}
	if !(Counters{}).Zero() || (Counters{C3: 1}).Zero() {
		t.Error("Zero wrong")
	}
}

func TestStateNames(t *testing.T) {
	cases := map[string]Counters{
		"Initialize":    {},
		"LoadFromCache": {C2: 1},
		"Block":         {C0: 1, C1: 16},
		"PSFEnabledS1":  {C0: 1, C1: 4, C2: 1},
		"PSFDisabledS1": {C0: 1, C1: 16, C2: 1},
		"PSFEnabledS2":  {C0: 1, C1: 4, C2: 1, C3: 1},
		"PSFDisabledS2": {C1: 16, C3: 1},
	}
	for want, c := range cases {
		if got := c.State(); got != want {
			t.Errorf("State(%+v) = %q, want %q", c, got, want)
		}
	}
}
