// Package pmc models the performance monitor counters used in Fig 2 of the
// paper to attribute execution-time differences to microarchitectural
// behaviour.
package pmc

import (
	"fmt"
	"sort"
	"strings"
)

// Event identifies a monitored event. The first five are the Fig 2 events;
// the rest are simulator-side events useful for the experiment reports.
type Event uint8

// Events.
const (
	// SQStallCycles is "Dynamic Tokens Dispatch for SQ Stall Cycles": cycles
	// a load spends stalled waiting for an older store's address.
	SQStallCycles Event = iota
	// StoreToLoadForwarding counts loads served from the store queue.
	StoreToLoadForwarding
	// LdDispatch counts load dispatches (re-dispatch after a rollback counts
	// again, which is how Fig 2 separates D/G from the rest).
	LdDispatch
	// ITLBHit4K is "L1 TLB Hits for Instruction Fetch 4K".
	ITLBHit4K
	// RetiredOps counts retired instructions.
	RetiredOps
	// Rollbacks counts pipeline flushes due to memory-speculation
	// mispredictions.
	Rollbacks
	// BranchMispredicts counts branch-direction mispredictions.
	BranchMispredicts
	// PSFForwards counts predictive store forwards (before store address
	// generation).
	PSFForwards
	// Bypasses counts loads that speculatively bypassed unresolved stores.
	Bypasses
	numEvents
)

var names = [...]string{
	SQStallCycles:         "Dynamic Tokens Dispatch for SQ Stall Cycles",
	StoreToLoadForwarding: "Store to Load Forwarding",
	LdDispatch:            "Ld Dispatch",
	ITLBHit4K:             "L1 TLB Hits for Instruction Fetch 4K",
	RetiredOps:            "Retired Ops",
	Rollbacks:             "Rollbacks",
	BranchMispredicts:     "Branch Mispredicts",
	PSFForwards:           "Predictive Store Forwards",
	Bypasses:              "Speculative Store Bypasses",
}

// keys are the stable machine-readable identifiers of the events, used as
// metrics-registry suffixes ("pmc.<key>") and profile column names. Keys and
// names must stay in lockstep with the event list; an exhaustiveness test
// fails the build when one lags.
var keys = [...]string{
	SQStallCycles:         "sq_stall_cycles",
	StoreToLoadForwarding: "stlf",
	LdDispatch:            "ld_dispatch",
	ITLBHit4K:             "itlb_hit_4k",
	RetiredOps:            "retired_ops",
	Rollbacks:             "rollbacks",
	BranchMispredicts:     "branch_mispredicts",
	PSFForwards:           "psf_forwards",
	Bypasses:              "bypasses",
}

func (e Event) String() string {
	if int(e) < len(names) {
		return names[e]
	}
	return fmt.Sprintf("event?%d", uint8(e))
}

// Key returns the event's stable snake_case identifier (metrics keys, profile
// columns); empty for out-of-range values.
func (e Event) Key() string {
	if int(e) < len(keys) {
		return keys[e]
	}
	return ""
}

// Events returns every defined event in declaration order.
func Events() []Event {
	out := make([]Event, NumEvents)
	for i := range out {
		out[i] = Event(i)
	}
	return out
}

// NumEvents is the number of defined events.
const NumEvents = int(numEvents)

// Counters is a set of event counters. The zero value is ready to use.
type Counters struct {
	counts [numEvents]uint64
}

// Add increments an event by n.
func (c *Counters) Add(e Event, n uint64) { c.counts[e] += n }

// Inc increments an event by one.
func (c *Counters) Inc(e Event) { c.counts[e]++ }

// Get returns an event count.
func (c *Counters) Get(e Event) uint64 { return c.counts[e] }

// Snapshot returns a copy of the current counts.
func (c *Counters) Snapshot() Counters { return Counters{counts: c.counts} }

// Delta returns the per-event difference c - prev, the usual way PMCs are
// read around a measured region.
func (c *Counters) Delta(prev Counters) Counters {
	var d Counters
	for i := range c.counts {
		d.counts[i] = c.counts[i] - prev.counts[i]
	}
	return d
}

// String formats non-zero counters, sorted by event name.
func (c Counters) String() string {
	type kv struct {
		name string
		v    uint64
	}
	var rows []kv
	for e := Event(0); e < numEvents; e++ {
		if c.counts[e] != 0 {
			rows = append(rows, kv{e.String(), c.counts[e]})
		}
	}
	sort.Slice(rows, func(i, j int) bool { return rows[i].name < rows[j].name })
	var sb strings.Builder
	for i, r := range rows {
		if i > 0 {
			sb.WriteString(", ")
		}
		fmt.Fprintf(&sb, "%s=%d", r.name, r.v)
	}
	return sb.String()
}
