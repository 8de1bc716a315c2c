package attack

import (
	"bytes"
	"encoding/json"
	"math/rand"
	"testing"

	"zenspec/internal/kernel"
)

func randSecret(seed int64, n int) []byte {
	r := rand.New(rand.NewSource(seed))
	s := make([]byte, n)
	r.Read(s)
	return s
}

// TestSpectreSTL reproduces Section V-B: the out-of-place Spectre-STL attack
// leaks victim bytes with near-perfect accuracy after a single code-sliding
// collision search (the paper: 99.95% over 10,000 bytes).
func TestSpectreSTL(t *testing.T) {
	secret := randSecret(9, 24)
	res := SpectreSTL(kernel.Config{Seed: 5}, secret, STLOptions{})
	t.Logf("%s", res)
	if res.Accuracy < 0.95 {
		t.Fatalf("accuracy %.3f, want >= 0.95 (leaked %x want %x)", res.Accuracy, res.Leaked, res.Secret)
	}
	if res.BytesPerSecond <= 0 {
		t.Error("no bandwidth recorded")
	}
	if res.CollisionAttempts == 0 {
		t.Error("no sliding attempts recorded")
	}
}

// TestSpectreSTLZeroBytes: zero-valued secret bytes are recovered through
// the no-hit path.
func TestSpectreSTLZeroBytes(t *testing.T) {
	secret := []byte{0, 0x41, 0, 0x42}
	res := SpectreSTL(kernel.Config{Seed: 7}, secret, STLOptions{})
	if res.Accuracy != 1 {
		t.Fatalf("accuracy %.3f (leaked %x)", res.Accuracy, res.Leaked)
	}
}

// TestSpectreSTLInstrStepSlider: sliding at instruction granularity still
// finds the collision (same-distance pairs collide at aligned offsets).
func TestSpectreSTLInstrStep(t *testing.T) {
	secret := randSecret(11, 8)
	res := SpectreSTL(kernel.Config{Seed: 3}, secret, STLOptions{InstrStep: true})
	if res.Accuracy < 0.9 {
		t.Fatalf("accuracy %.3f with instruction-step sliding", res.Accuracy)
	}
}

// TestSpectreCTL reproduces Section V-C1: the cross-process attack through
// the SSBP covert channel (the paper: 99.97%).
func TestSpectreCTL(t *testing.T) {
	secret := randSecret(3, 16)
	res := SpectreCTL(kernel.Config{Seed: 5}, secret, CTLOptions{})
	t.Logf("%s", res)
	if res.Accuracy < 0.95 {
		t.Fatalf("accuracy %.3f (leaked %x want %x)", res.Accuracy, res.Leaked, res.Secret)
	}
	// Every leaked byte costs at least one victim invocation.
	if res.VictimCalls < len(secret) {
		t.Fatalf("%d victim calls for %d secret bytes", res.VictimCalls, len(secret))
	}
}

// TestSpectreCTLKernelVictim: the same attack works against a kernel-domain
// victim — SSBP does not distinguish security domains (Vulnerability 1).
func TestSpectreCTLKernelVictim(t *testing.T) {
	secret := randSecret(4, 8)
	res := SpectreCTL(kernel.Config{Seed: 6}, secret, CTLOptions{VictimDomain: kernel.DomainKernel})
	if res.Accuracy < 0.95 {
		t.Fatalf("accuracy %.3f against kernel victim", res.Accuracy)
	}
}

// TestSpectreCTLBrowser reproduces Section V-C2: with the coarse jittered
// browser timer the attack still works but degrades (the paper: 81.1% at
// roughly half the native bandwidth).
func TestSpectreCTLBrowser(t *testing.T) {
	secret := randSecret(3, 12)
	browser := SpectreCTLBrowser(kernel.Config{Seed: 5}, secret)
	native := SpectreCTL(kernel.Config{Seed: 5}, secret, CTLOptions{})
	t.Logf("browser: %s", browser)
	t.Logf("native:  %s", native)
	if browser.Accuracy < 0.5 {
		t.Fatalf("browser accuracy %.3f, want a working-but-degraded channel", browser.Accuracy)
	}
	if browser.Accuracy > native.Accuracy {
		t.Errorf("browser accuracy %.3f should not exceed native %.3f", browser.Accuracy, native.Accuracy)
	}
	if browser.BytesPerSecond >= native.BytesPerSecond {
		t.Errorf("browser bandwidth %.0f should be below native %.0f", browser.BytesPerSecond, native.BytesPerSecond)
	}
}

// TestSSBDStopsAttacks is Section VI-A: with SSBD the loads serialize and
// neither attack leaks.
func TestSSBDStopsAttacks(t *testing.T) {
	secret := randSecret(13, 8)
	stl := SpectreSTL(kernel.Config{Seed: 5, SSBD: true}, secret, STLOptions{})
	if stl.Accuracy > 0.2 {
		t.Errorf("Spectre-STL leaked %.0f%% under SSBD", 100*stl.Accuracy)
	}
	ctl := SpectreCTL(kernel.Config{Seed: 5, SSBD: true}, secret, CTLOptions{Sweeps: 1})
	if ctl.Accuracy > 0.2 {
		t.Errorf("Spectre-CTL leaked %.0f%% under SSBD", 100*ctl.Accuracy)
	}
}

// TestPSFDDoesNotStopSTL is the paper's negative result: PSFD set, attack
// still works.
func TestPSFDDoesNotStopSTL(t *testing.T) {
	secret := randSecret(17, 8)
	res := SpectreSTL(kernel.Config{Seed: 5, PSFD: true}, secret, STLOptions{})
	if res.Accuracy < 0.9 {
		t.Fatalf("accuracy %.3f with PSFD; the paper found PSFD ineffective", res.Accuracy)
	}
}

// TestFlushSSBPMitigationStopsCTL: the Section VI-B flush-on-switch
// mitigation kills the cross-process channel.
func TestFlushSSBPMitigationStopsCTL(t *testing.T) {
	secret := randSecret(19, 6)
	res := SpectreCTL(kernel.Config{Seed: 5, FlushSSBPOnSwitch: true}, secret, CTLOptions{Sweeps: 1})
	if res.Accuracy > 0.2 {
		t.Errorf("Spectre-CTL leaked %.0f%% despite SSBP flush on switch", 100*res.Accuracy)
	}
}

// TestSaltMitigationAblation measures the Section VI-B randomized-selection
// proposal in both strengths. The static per-domain salt does NOT stop the
// attack — the sliding search finds colliding offsets empirically, salt or
// not (an ablation finding of this reproduction). Rotating the salt on
// every context switch orphans trained entries and kills the channel.
func TestSaltMitigationAblation(t *testing.T) {
	secret := randSecret(23, 6)
	static := SpectreCTL(kernel.Config{Seed: 5, SaltPerDomain: true}, secret,
		CTLOptions{Sweeps: 1, VictimDomain: kernel.DomainKernel})
	if static.Accuracy < 0.9 {
		t.Logf("note: static salt degraded the attack to %.0f%%", 100*static.Accuracy)
	}
	rotating := SpectreCTL(kernel.Config{Seed: 5, RotateSalt: true}, secret,
		CTLOptions{Sweeps: 1, VictimDomain: kernel.DomainKernel})
	if rotating.Accuracy > 0.2 {
		t.Errorf("Spectre-CTL leaked %.0f%% despite salt rotation", 100*rotating.Accuracy)
	}
	// Control: without mitigation the cross-domain attack succeeds.
	control := SpectreCTL(kernel.Config{Seed: 5}, secret,
		CTLOptions{Sweeps: 1, VictimDomain: kernel.DomainKernel})
	if control.Accuracy < 0.9 {
		t.Errorf("control cross-domain attack only leaked %.0f%%", 100*control.Accuracy)
	}
}

// TestSecureTimerDegradesSTL: quantizing RDPRU far beyond cache-latency
// granularity (the strong secure-timer mitigation) breaks Flush+Reload.
func TestSecureTimerDegradesSTL(t *testing.T) {
	secret := randSecret(29, 8)
	res := SpectreSTL(kernel.Config{Seed: 5, TimerQuantum: 4096}, secret, STLOptions{})
	if res.Accuracy > 0.3 {
		t.Errorf("Spectre-STL leaked %.0f%% with a 4096-cycle timer", 100*res.Accuracy)
	}
}

// TestFingerprint reproduces Fig 11: the SVM separates the six CNN models
// from SSBP fingerprints (the paper: >95.5%).
func TestFingerprint(t *testing.T) {
	if testing.Short() {
		t.Skip("fingerprinting sweep is slow")
	}
	res, err := Fingerprint(kernel.Config{}, FingerprintOptions{
		ScanRange: 128, Rounds: 14, TrainSamples: 9, TestSamples: 4, Seed: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("\n%s", res)
	if res.Accuracy < 0.9 {
		t.Fatalf("fingerprint accuracy %.3f, want >= 0.9", res.Accuracy)
	}
	// Mean vectors must be distinguishable: at least two models differ
	// grossly in their dominant bin.
	if len(res.MeanVectors) != 6 {
		t.Fatalf("%d models fingerprinted", len(res.MeanVectors))
	}
}

// TestResultString covers the report formatting.
func TestResultString(t *testing.T) {
	r := Result{Name: "x", Secret: []byte{1, 2}, Leaked: []byte{1, 3}, Cycles: 4e9}
	finalize(&r)
	if r.Correct != 1 || r.Accuracy != 0.5 {
		t.Errorf("finalize: %+v", r)
	}
	if r.BytesPerSecond <= 0 || r.String() == "" {
		t.Error("report formatting")
	}
	if CyclesToSeconds(4e9) != 1 {
		t.Error("CyclesToSeconds at 4 GHz")
	}
}

// TestSpectreSTLInPlaceBaseline: the classic in-place variant works but
// costs a batch of victim executions per byte, where the out-of-place attack
// needs one — the paper's Section V-B comparison.
func TestSpectreSTLInPlaceBaseline(t *testing.T) {
	secret := randSecret(31, 12)
	inPlace := SpectreSTLInPlace(kernel.Config{Seed: 5}, secret)
	t.Logf("in-place:     %s", inPlace)
	if inPlace.Accuracy < 0.9 {
		t.Fatalf("in-place accuracy %.3f (leaked %x)", inPlace.Accuracy, inPlace.Leaked)
	}
	outOfPlace := SpectreSTL(kernel.Config{Seed: 5}, secret, STLOptions{})
	t.Logf("out-of-place: %s", outOfPlace)
	inCalls := float64(inPlace.VictimCalls) / float64(len(secret))
	outCalls := float64(outOfPlace.VictimCalls) / float64(len(secret))
	if inCalls < 4*outCalls {
		t.Errorf("in-place should need far more victim calls per byte: %.1f vs %.1f", inCalls, outCalls)
	}
}

// TestFingerprintRangeIdentity: assembling the sample grid from range
// shards — any partition, computed in any order — reproduces the monolithic
// Fingerprint result exactly, including the float64 vectors' JSON round
// trip through the service journal. This is fig11's half of the service's
// trial-range sharding contract; the grid is shrunk so the test stays fast.
func TestFingerprintRangeIdentity(t *testing.T) {
	opts := FingerprintOptions{
		ScanRange: 24, Rounds: 2, TrainSamples: 1, TestSamples: 1, Seed: 5,
	}
	cfg := kernel.Config{Parallelism: 1}
	want, wantErr := Fingerprint(cfg, opts)
	n := FingerprintCells(opts)
	if n != 12 {
		t.Fatalf("FingerprintCells = %d, want 12 (6 models x 2 samples)", n)
	}
	for _, k := range []int{2, 3, 4} {
		var samples []FingerprintSample
		for i := 0; i < k; i++ {
			part := FingerprintRange(cfg, opts, i*n/k, (i+1)*n/k)
			// The journal round trip: fragments travel as JSON.
			raw, err := json.Marshal(part)
			if err != nil {
				t.Fatal(err)
			}
			part = nil
			if err := json.Unmarshal(raw, &part); err != nil {
				t.Fatal(err)
			}
			samples = append(samples, part...)
		}
		got, gotErr := FingerprintAssemble(opts, samples)
		if (gotErr == nil) != (wantErr == nil) {
			t.Fatalf("split %d: err %v vs monolithic %v", k, gotErr, wantErr)
		}
		a, err := json.Marshal(got)
		if err != nil {
			t.Fatal(err)
		}
		b, err := json.Marshal(want)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(a, b) {
			t.Errorf("split %d diverged:\n%s\nvs\n%s", k, a, b)
		}
	}
}
