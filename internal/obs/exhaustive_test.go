package obs

import (
	"go/ast"
	"go/parser"
	"go/token"
	"testing"

	"zenspec/internal/pmc"
)

// declaredEventTypes parses the package source and returns the name of every
// type that declares an EventName method — i.e. every concrete event. The
// test below keeps its sample list in lockstep with this set, so adding an
// event type without extending the name/metrics/trace plumbing fails CI.
func declaredEventTypes(t *testing.T) map[string]bool {
	t.Helper()
	fset := token.NewFileSet()
	pkgs, err := parser.ParseDir(fset, ".", nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	types := map[string]bool{}
	for _, pkg := range pkgs {
		for _, file := range pkg.Files {
			for _, decl := range file.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok || fd.Name.Name != "EventName" || fd.Recv == nil || len(fd.Recv.List) == 0 {
					continue
				}
				switch rt := fd.Recv.List[0].Type.(type) {
				case *ast.Ident:
					types[rt.Name] = true
				case *ast.StarExpr:
					if id, ok := rt.X.(*ast.Ident); ok {
						types[id.Name] = true
					}
				}
			}
		}
	}
	return types
}

// sampleEvents returns one representative instance per event type, with
// enough fields set that every consumer (names, metrics, trace) produces
// output for it.
func sampleEvents() map[string]Event {
	var counts pmc.Counters
	counts.Inc(pmc.SQStallCycles)
	return map[string]Event{
		"InstEvent":           InstEvent{CPU: 0, PC: 0x400000, Dispatch: 1, Issue: 2, Complete: 5, RetiredBy: 6},
		"SquashEvent":         SquashEvent{Kind: SquashBypass, PC: 0x400008, Start: 10, Verify: 20, Penalty: 200, Insts: 3},
		"ForwardEvent":        ForwardEvent{Cycle: 4, StoreIPA: 0x1000, VA: 0x2000},
		"PredictEvent":        PredictEvent{Cycle: 5, StoreIPA: 0x1000, LoadIPA: 0x1008, Aliasing: true},
		"PSFPTrainEvent":      PSFPTrainEvent{Cycle: 6, Type: "A", Aliasing: true},
		"SSBPTransitionEvent": SSBPTransitionEvent{Cycle: 7, Type: "G", StateBefore: "Block", StateAfter: "Bypass"},
		"PredictorEvictEvent": PredictorEvictEvent{Cycle: 8, Predictor: "psfp"},
		"PredictorFlushEvent": PredictorFlushEvent{Cycle: 9, Predictor: "ssbp", Entries: 4, Cause: "sleep"},
		"CacheEvent":          CacheEvent{Cycle: 10, Kind: "fill", Level: "L1", Line: 0x40},
		"ProbeEvent":          ProbeEvent{Cycle: 11, Slot: 2, Cycles: 30, Threshold: 60, Hit: true},
		"ContextSwitchEvent":  ContextSwitchEvent{Cycle: 12, ToPID: 1, ToName: "p", ToDomain: "user", PSFPFlushed: true},
		"FaultEvent":          FaultEvent{Cycle: 13, Kind: "psfp-evict", Count: 1},
		"PMCEvent":            PMCEvent{Cycle: 14, Counts: counts},
	}
}

// TestEventExhaustiveness is the three-places-in-lockstep gate: every event
// type declared in the package must (1) appear in the sample list, (2) carry
// a stable non-empty name and a valid class, (3) fold into at least one
// metrics-registry key, and (4) render at least one trace event. A new event
// added without a name, metrics key or trace mapping fails here.
func TestEventExhaustiveness(t *testing.T) {
	declared := declaredEventTypes(t)
	if len(declared) == 0 {
		t.Fatal("found no event types; the source scan is broken")
	}
	samples := sampleEvents()
	for name := range declared {
		if _, ok := samples[name]; !ok {
			t.Errorf("event type %s has no sample here: extend sampleEvents and the consumers", name)
		}
	}
	for name := range samples {
		if !declared[name] {
			t.Errorf("sample %s does not correspond to a declared event type", name)
		}
	}
	for name, e := range samples {
		if e.EventName() == "" {
			t.Errorf("%s: empty EventName", name)
		}
		c := e.EventClass()
		if c >= NumClasses {
			t.Errorf("%s: class %d out of range", name, c)
		}
		if c.String() == "class?" {
			t.Errorf("%s: class %d has no String name", name, c)
		}
		m := NewMetrics()
		m.HandleEvent(e)
		if s := m.Snapshot(); len(s.Counters) == 0 && len(s.Histograms) == 0 {
			t.Errorf("%s: Metrics.HandleEvent produced no counters or histograms", name)
		}
		r := NewRecorder()
		r.HandleEvent(e)
		if r.Len() == 0 {
			t.Errorf("%s: Recorder.HandleEvent produced no trace events", name)
		}
	}
}

// TestClassNamesExhaustive asserts every class has a distinct String name.
func TestClassNamesExhaustive(t *testing.T) {
	seen := map[string]bool{}
	for c := range NumClasses {
		s := c.String()
		if s == "class?" {
			t.Errorf("class %d has no String name", c)
		}
		if seen[s] {
			t.Errorf("class name %q duplicated", s)
		}
		seen[s] = true
	}
}
