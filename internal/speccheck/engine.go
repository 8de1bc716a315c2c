package speccheck

import (
	"zenspec/internal/isa"
	"zenspec/internal/speccheck/summary"
)

// findKey dedupes findings by speculation source and transmitter.
type findKey struct {
	kind    Kind
	src, tx int
}

// engine runs the always-mispredict taint dataflow for one analysis call,
// for AnalyzeAll and for each source that misses Cache.Analyze's tiers. The
// abstract domain (per-register taint, witness chain, finite abstract store)
// and the per-instruction transfer function live in
// internal/speccheck/summary, next to the dependency closures that key the
// cache on the code this walk can read.
type engine struct {
	g        *CFG
	opts     Options
	findings []Finding
	seen     map[findKey]bool
	// states counts the abstract states the last explore walked.
	states int
}

// node is one pending exploration step: the instruction at off is steps
// instructions past the speculation source, entered with state st.
type node struct {
	off, steps int
	st         summary.State
}

// chainDepth returns the dependent-load chain depth a transmitter needs for
// a source kind: store → ld1 → ld2 → transmitter for STL (the Listing 2/3
// chain), branch → secret load → transmitter for CTL (the V1 shape).
func chainDepth(kind Kind) int {
	if kind == KindCTL {
		return 1
	}
	return 2
}

// explore walks the transient window opened by the source at src: the
// bypassed store (STL) or the mispredicted branch (CTL), reporting every
// reachable source → load-chain → transmitter witness. It reports whether
// the walk was truncated by the MaxStates budget.
func (e *engine) explore(kind Kind, src int) bool {
	required := chainDepth(kind)
	e.states = 0
	visited := make(map[string]int)

	var stack []node
	push := func(off, steps int, st *summary.State) {
		if steps >= e.opts.Window {
			return
		}
		stack = append(stack, node{off: off, steps: steps, st: st.Clone()})
	}
	var empty summary.State
	if kind == KindCTL {
		// Always-mispredict: both directions are wrong-path continuations.
		for _, succ := range e.g.SuccOffs(src) {
			push(succ, 1, &empty)
		}
	} else {
		push(src+isa.InstBytes, 1, &empty)
	}

	for len(stack) > 0 {
		if e.states >= e.opts.MaxStates {
			return true
		}
		n := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if n.off+isa.InstBytes > len(e.g.code) || n.off < 0 {
			continue
		}
		k := n.st.Key(n.off)
		if prev, ok := visited[k]; ok && prev <= n.steps {
			continue // already explored from here with at least as much window left
		}
		visited[k] = n.steps
		e.states++

		in := e.g.InstAt(n.off)
		st := &n.st
		switch summary.Step(in, st, n.off, required) {
		case summary.End:
			continue
		case summary.Report:
			e.report(kind, src, st.Chain, n.off)
			continue
		}
		for _, succ := range e.g.SuccOffs(n.off) {
			push(succ, n.steps+1, st)
		}
	}
	return false
}

func (e *engine) report(kind Kind, src int, chain []int, tx int) {
	k := findKey{kind: kind, src: src, tx: tx}
	if e.seen[k] {
		return
	}
	e.seen[k] = true
	loads := append([]int(nil), chain...)
	e.findings = append(e.findings, Finding{
		Kind:        kind,
		SourceOff:   src,
		LoadOffs:    loads,
		TransmitOff: tx,
		Depth:       len(loads),
	})
}
