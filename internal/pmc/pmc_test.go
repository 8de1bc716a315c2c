package pmc

import (
	"strings"
	"testing"
)

func TestAddIncGet(t *testing.T) {
	var c Counters
	c.Inc(RetiredOps)
	c.Add(RetiredOps, 4)
	c.Add(SQStallCycles, 10)
	if c.Get(RetiredOps) != 5 {
		t.Errorf("RetiredOps = %d", c.Get(RetiredOps))
	}
	if c.Get(SQStallCycles) != 10 {
		t.Errorf("SQStallCycles = %d", c.Get(SQStallCycles))
	}
	if c.Get(LdDispatch) != 0 {
		t.Error("untouched counter nonzero")
	}
}

func TestDelta(t *testing.T) {
	var c Counters
	c.Add(LdDispatch, 3)
	before := c.Snapshot()
	c.Add(LdDispatch, 7)
	c.Inc(Rollbacks)
	d := c.Delta(before)
	if d.Get(LdDispatch) != 7 || d.Get(Rollbacks) != 1 {
		t.Errorf("delta = %v", d)
	}
	if before.Get(LdDispatch) != 3 {
		t.Error("snapshot mutated")
	}
}

func TestString(t *testing.T) {
	var c Counters
	c.Add(StoreToLoadForwarding, 2)
	c.Inc(Bypasses)
	s := c.String()
	if !strings.Contains(s, "Store to Load Forwarding=2") {
		t.Errorf("String = %q", s)
	}
	if !strings.Contains(s, "Speculative Store Bypasses=1") {
		t.Errorf("String = %q", s)
	}
	if strings.Contains(s, "Retired") {
		t.Error("zero counters should be omitted")
	}
}

func TestEventNames(t *testing.T) {
	for e := Event(0); int(e) < NumEvents; e++ {
		if e.String() == "" || strings.HasPrefix(e.String(), "event?") {
			t.Errorf("event %d has no name", e)
		}
	}
	if Event(200).String() == "" {
		t.Error("unknown event should still print")
	}
}

// TestEventKeysExhaustive is the names/keys lockstep gate: every event must
// carry a unique snake_case key alongside its display name, and Events()
// must cover the full space. Adding an event without extending both tables
// fails here (and so fails CI).
func TestEventKeysExhaustive(t *testing.T) {
	evs := Events()
	if len(evs) != NumEvents {
		t.Fatalf("Events returned %d, want %d", len(evs), NumEvents)
	}
	seen := map[string]bool{}
	for _, e := range evs {
		k := e.Key()
		if k == "" {
			t.Errorf("event %q has no key", e)
			continue
		}
		if seen[k] {
			t.Errorf("key %q duplicated", k)
		}
		seen[k] = true
		if strings.ToLower(k) != k || strings.ContainsAny(k, " -.") {
			t.Errorf("key %q is not snake_case", k)
		}
	}
	if Event(200).Key() != "" {
		t.Error("out-of-range event should have an empty key")
	}
}
