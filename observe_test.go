package zenspec

import (
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"sync/atomic"
	"testing"
)

var updateGolden = flag.Bool("update-golden", false, "rewrite golden files under testdata/")

// listing2Src is the paper's Listing 2 STL gadget: a store whose address
// generation is delayed by a multiply chain, the load that speculatively
// bypasses it, and the dependent transmit load.
const listing2Src = `
	movi r13, 0x10000      ; data base
	movi rax, 0x41         ; value the store writes
	movi rcx, 1
	imul rcx, rcx, r13     ; slow store-address chain
	store [rcx], rax       ; store (address resolves late)
	load rdx, [r13]        ; ld1: may bypass the store
	and  rdx, rdx, 0xff
	shl  r8, rdx, 6
	add  r8, r8, r13
	load r9, [r8]          ; ld2/transmit: address from ld1
	halt
`

// runListing2Trial boots a seed-pinned machine under a guaranteed-strike
// fault plan, attaches o, and runs the Listing 2 gadget three times (the
// first run mispredicts and trains; later runs replay against the trained,
// fault-perturbed predictor state).
func runListing2Trial(t *testing.T, o Observer) {
	t.Helper()
	plan, err := ParseFaultPlan(`{"seed":7,"psfp_evict_rate":1,"spurious_train_rate":1,"cache_evict_rate":1,"cache_evict_lines":2}`)
	if err != nil {
		t.Fatal(err)
	}
	m := NewMachine(Config{Seed: 42, Faults: plan, Observer: o})
	p := m.NewProcess("listing2", DomainUser)
	const entry = 0x400000
	code, err := Assemble(listing2Src, entry)
	if err != nil {
		t.Fatal(err)
	}
	p.MapCode(entry, code)
	p.MapData(0x10000, 65536)
	for run := 0; run < 3; run++ {
		res := m.Run(p, entry, 0)
		if res.Stop.String() != "halt" {
			t.Fatalf("run %d stopped with %v", run, res.Stop)
		}
	}
}

// TestGoldenPerfettoListing2 records the seed-pinned Listing 2 STL trial and
// compares the Perfetto export byte for byte against the checked-in golden
// file (refresh with -update-golden). It also asserts the trace carries the
// event kinds the observability layer promises: PSFP training, an SSBP
// counter transition, a squash with its window extent, and injected faults.
func TestGoldenPerfettoListing2(t *testing.T) {
	rec := NewTraceRecorder()
	runListing2Trial(t, rec)
	got, err := rec.Perfetto()
	if err != nil {
		t.Fatal(err)
	}

	var doc struct {
		TraceEvents []struct {
			Name  string `json:"name"`
			Phase string `json:"ph"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(got, &doc); err != nil {
		t.Fatalf("trace is not valid JSON: %v", err)
	}
	complete := 0
	kinds := map[string]bool{}
	for _, e := range doc.TraceEvents {
		if e.Phase == "X" {
			complete++
		}
		switch {
		case strings.HasPrefix(e.Name, "psfp-train:"):
			kinds["train"] = true
		case strings.HasPrefix(e.Name, "ssbp:"):
			kinds["ssbp"] = true
		case strings.HasPrefix(e.Name, "squash:"):
			kinds["squash"] = true
		case strings.HasPrefix(e.Name, "fault-"):
			kinds["fault"] = true
		}
	}
	if complete == 0 {
		t.Error("trace has no complete (\"X\") events")
	}
	for _, want := range []string{"train", "ssbp", "squash", "fault"} {
		if !kinds[want] {
			t.Errorf("trace is missing %s events", want)
		}
	}

	golden := filepath.Join("testdata", "listing2_trace.json")
	if *updateGolden {
		if err := os.WriteFile(golden, got, 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("rewrote %s (%d events)", golden, len(doc.TraceEvents))
		return
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("%v (run with -update-golden to create it)", err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("trace differs from %s (%d bytes vs %d; rerun with -update-golden after intended changes)",
			golden, len(got), len(want))
	}
}

// TestObserverNeverChangesTrialResults runs the Listing 2 trial bare and
// under three observers at once and asserts the architectural outcome is
// identical: observation is strictly read-only.
func TestObserverNeverChangesTrialResults(t *testing.T) {
	regs := func(o Observer) [2]uint64 {
		plan, _ := ParseFaultPlan("default")
		m := NewMachine(Config{Seed: 42, Faults: plan, Observer: o})
		p := m.NewProcess("listing2", DomainUser)
		const entry = 0x400000
		code, err := Assemble(listing2Src, entry)
		if err != nil {
			t.Fatal(err)
		}
		p.MapCode(entry, code)
		p.MapData(0x10000, 65536)
		m.Run(p, entry, 0)
		return [2]uint64{p.Regs[2], p.Regs[9]} // rdx (ld1), r9 (transmit)
	}
	bare := regs(nil)
	rec := NewTraceRecorder()
	mets := NewMetricsObserver()
	var n atomic.Uint64
	multi := ObserverFunc(func(e Event) {
		n.Add(1)
		rec.HandleEvent(e)
		mets.HandleEvent(e)
	})
	observed := regs(multi)
	if bare != observed {
		t.Errorf("observer changed results: bare %#x, observed %#x", bare, observed)
	}
	if n.Load() == 0 || rec.Len() == 0 {
		t.Error("observer saw no events; the determinism check is vacuous")
	}
}

// TestObserverStableJSONAcrossWorkers runs a registry subset bare at one
// worker, then with an attached observer at several worker counts, and
// requires every StableJSON rendering to be byte-identical to the bare
// baseline. Under the default fault plan every lab boots and calibrates;
// without faults the bare runs copy calibrated labs and the observed runs
// boot them (revng.NewLab), so the second case also checks that both ways
// give the same lab.
func TestObserverStableJSONAcrossWorkers(t *testing.T) {
	plan, err := ParseFaultPlan("default")
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name    string
		ids     []string
		faults  FaultPlan
		workers []int
	}{
		{"default-faults", []string{"table1", "fig4", "fault-harness"}, plan, []int{1, 2, 8}},
		{"no-faults", []string{"table1", "fig4", "fig5", "spectre-stl"}, FaultPlan{}, []int{1, 2}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			stable := func(workers int, o Observer) []byte {
				cfg := Config{Seed: 42, Parallelism: workers, Faults: tc.faults, Observer: o}
				suite, err := RunExperiments(cfg, true, tc.ids)
				if err != nil {
					t.Fatal(err)
				}
				b, err := suite.StableJSON()
				if err != nil {
					t.Fatal(err)
				}
				return b
			}
			baseline := stable(1, nil)
			var seen atomic.Uint64
			count := ObserverFunc(func(Event) { seen.Add(1) })
			for _, workers := range tc.workers {
				if got := stable(workers, nil); !bytes.Equal(got, baseline) {
					t.Errorf("bare StableJSON at %d workers differs from bare baseline", workers)
				}
				if got := stable(workers, count); !bytes.Equal(got, baseline) {
					t.Errorf("StableJSON with observer at %d workers differs from bare baseline", workers)
				}
			}
			if seen.Load() == 0 {
				t.Error("observer saw no events; the invariance check is vacuous")
			}
		})
	}
}

// TestMetricsSnapshotDeterministicAcrossWorkers asserts the Metrics fold is
// worker-count independent: the same suite with cfg.Metrics produces
// byte-identical StableJSON (which embeds the micro snapshots) at 1, 2 and
// 8 workers. A caller observer subscribed to squash events alone must not
// change the micro snapshots either: its class filter is its own, not the
// per-experiment registry's.
func TestMetricsSnapshotDeterministicAcrossWorkers(t *testing.T) {
	ids := []string{"table1", "fig4"}
	stable := func(workers int, o Observer, classes []EventClass) []byte {
		cfg := Config{Seed: 42, Parallelism: workers, Metrics: true, Observer: o, ObserverClasses: classes}
		suite, err := RunExperiments(cfg, true, ids)
		if err != nil {
			t.Fatal(err)
		}
		for _, r := range suite.Experiments {
			if r.Micro == nil {
				t.Fatalf("%s: no micro metrics despite cfg.Metrics", r.ID)
			}
		}
		b, err := suite.StableJSON()
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	baseline := stable(1, nil, nil)
	for _, workers := range []int{2, 8} {
		if got := stable(workers, nil, nil); !bytes.Equal(got, baseline) {
			t.Errorf("metrics StableJSON at %d workers differs from serial", workers)
		}
	}
	var squashes, others atomic.Uint64
	squashOnly := ObserverFunc(func(e Event) {
		if e.EventClass() == ClassSquash {
			squashes.Add(1)
		} else {
			others.Add(1)
		}
	})
	for _, workers := range []int{1, 2, 8} {
		if got := stable(workers, squashOnly, []EventClass{ClassSquash}); !bytes.Equal(got, baseline) {
			t.Errorf("metrics StableJSON with a squash-only caller observer at %d workers differs from serial", workers)
		}
	}
	if squashes.Load() == 0 || others.Load() != 0 {
		t.Errorf("squash-only caller observer saw %d squash and %d other events, want some and none", squashes.Load(), others.Load())
	}
}

// TestErrUnknownExperiment asserts the registry entry point fails with the
// typed sentinel for unknown IDs.
func TestErrUnknownExperiment(t *testing.T) {
	if _, err := RunExperiments(Config{}, true, []string{"no-such-experiment"}); !errors.Is(err, ErrUnknownExperiment) {
		t.Errorf("RunExperiments err = %v, want ErrUnknownExperiment", err)
	}
	if _, err := RunExperiments(Config{}, true, []string{"table1"}); err != nil {
		t.Errorf("RunExperiments with a known ID failed: %v", err)
	}
}

// TestPlatformsCopyAndZeroDefault asserts Platforms returns a defensive copy
// and that the zero-value Config lowers to the Ryzen 9 5900X store-queue
// size (48 entries).
func TestPlatformsCopyAndZeroDefault(t *testing.T) {
	ps := Platforms()
	ps[0].Name = "clobbered"
	ps[0].SQSize = -1
	if got := Platforms()[0]; got.Name != "ryzen9-5900x" || got.SQSize != 48 {
		t.Errorf("Platforms leaked internal state: got %+v", got)
	}
	if _, ok := PlatformByName("clobbered"); ok {
		t.Error("PlatformByName sees caller mutation")
	}
	kc := Config{}.kernelConfig()
	if kc.Pipeline.SQSize != 48 {
		t.Errorf("zero Config SQSize = %d, want 48 (Ryzen 9 5900X)", kc.Pipeline.SQSize)
	}
	def, ok := PlatformByName("ryzen9-5900x")
	if !ok || (Config{Platform: def}).kernelConfig().Pipeline.SQSize != 48 {
		t.Error("ryzen9-5900x preset does not lower to SQSize 48")
	}
}
