package sidechannel

import (
	"testing"

	"zenspec/internal/kernel"
	"zenspec/internal/mem"
)

func setup(t *testing.T, cfg kernel.Config) (*kernel.Kernel, *kernel.Process, *FlushReload) {
	t.Helper()
	k := kernel.New(cfg)
	p := k.NewProcess("fr", kernel.DomainUser)
	const probeVA = 0x2000000
	p.MapData(probeVA, 256*mem.PageSize)
	fr := New(k, p, 0, probeVA, 256, 0x400000)
	return k, p, fr
}

func TestCalibration(t *testing.T) {
	_, _, fr := setup(t, kernel.Config{Seed: 1})
	if fr.threshold == 0 {
		t.Fatal("threshold not calibrated")
	}
	// A warm line must time under the threshold, a flushed one over it.
	va := fr.ProbeVA + 5*fr.Stride
	fr.P.WarmLine(va)
	if got := fr.Time(va); got >= fr.threshold {
		t.Errorf("warm line timed %d >= threshold %d", got, fr.threshold)
	}
	fr.P.FlushLine(va)
	if got := fr.Time(va); got < fr.threshold {
		t.Errorf("flushed line timed %d < threshold %d", got, fr.threshold)
	}
}

func TestFlushReloadRecoversTouchedSlot(t *testing.T) {
	_, p, fr := setup(t, kernel.Config{Seed: 1})
	for _, secret := range []int{0, 7, 128, 255} {
		fr.FlushAll()
		// "Victim" touches one slot.
		p.WarmLine(fr.ProbeVA + uint64(secret)*fr.Stride)
		got, ok := fr.Recover(nil)
		if !ok || got != secret {
			t.Errorf("recovered %d (ok=%v), want %d", got, ok, secret)
		}
	}
}

func TestReloadListsAllHits(t *testing.T) {
	_, p, fr := setup(t, kernel.Config{Seed: 1})
	fr.FlushAll()
	p.WarmLine(fr.ProbeVA + 3*fr.Stride)
	p.WarmLine(fr.ProbeVA + 9*fr.Stride)
	hits := fr.Reload()
	want := map[int]bool{3: true, 9: true}
	if len(hits) != 2 || !want[hits[0]] || !want[hits[1]] {
		t.Errorf("hits = %v, want {3, 9}", hits)
	}
}

func TestRecoverExcludes(t *testing.T) {
	_, p, fr := setup(t, kernel.Config{Seed: 1})
	fr.FlushAll()
	p.WarmLine(fr.ProbeVA + 0*fr.Stride) // polluted slot
	p.WarmLine(fr.ProbeVA + 42*fr.Stride)
	got, ok := fr.Recover(map[int]bool{0: true})
	if !ok || got != 42 {
		t.Errorf("recovered %d, want 42", got)
	}
	// Nothing but excluded slots hot -> not ok.
	fr.FlushAll()
	p.WarmLine(fr.ProbeVA)
	if _, ok := fr.Recover(map[int]bool{0: true}); ok {
		t.Error("recover should fail with only excluded hits")
	}
}

func TestCoarseTimerDegradesChannel(t *testing.T) {
	// With the secure-timer mitigation the hit/miss gap can vanish; the
	// channel must at minimum calibrate without panicking, and with a very
	// coarse quantum the threshold collapses.
	_, p, fr := setup(t, kernel.Config{Seed: 1, TimerQuantum: 512})
	fr.FlushAll()
	p.WarmLine(fr.ProbeVA + 9*fr.Stride)
	// Either recovery fails or it is unreliable; we only require that the
	// code path works.
	fr.Recover(nil)
}
