package revng

import (
	"fmt"
	"strings"

	"zenspec/internal/harness"
	"zenspec/internal/kernel"
	"zenspec/internal/mem"
)

// IsolationRow is one cell of the Section IV-A experiment matrix: predictor
// state is trained in one security domain and probed from another.
type IsolationRow struct {
	Predictor string // "PSFP" or "SSBP"
	Train     kernel.Domain
	Probe     kernel.Domain
	InPlace   bool // shared executable page (in-place) vs hash collision (out-of-place)
	Leaked    bool // the probe observed the trained state
}

// IsolationResult is the full matrix.
type IsolationResult struct {
	Rows []IsolationRow
}

// Vulnerability1 reports whether the matrix exhibits the paper's
// Vulnerability 1: SSBP leaks across at least one domain pair while PSFP
// does not.
func (r IsolationResult) Vulnerability1() bool {
	ssbpLeaks, psfpLeaks := false, false
	for _, row := range r.Rows {
		if row.Train == row.Probe {
			continue
		}
		if row.Predictor == "SSBP" && row.Leaked {
			ssbpLeaks = true
		}
		if row.Predictor == "PSFP" && row.Leaked {
			psfpLeaks = true
		}
	}
	return ssbpLeaks && !psfpLeaks
}

func (r IsolationResult) String() string {
	var sb strings.Builder
	sb.WriteString("Section IV-A — predictor isolation between security domains\n")
	fmt.Fprintf(&sb, "%-6s %-8s %-8s %-10s %s\n", "pred", "train", "probe", "placement", "leaked")
	for _, row := range r.Rows {
		place := "out-of-place"
		if row.InPlace {
			place = "in-place"
		}
		fmt.Fprintf(&sb, "%-6s %-8s %-8s %-10s %v\n", row.Predictor, row.Train, row.Probe, place, row.Leaked)
	}
	fmt.Fprintf(&sb, "Vulnerability 1 reproduced: %v\n", r.Vulnerability1())
	return sb.String()
}

// PrepData maps and warms the lab's data region in an arbitrary process so
// its stld runs are cache-hit bound like the lab process's.
func (l *Lab) PrepData(p *kernel.Process) {
	p.MapData(l.dataVA, 4*mem.PageSize)
	p.WarmLine(l.StoreAddr())
	p.WarmLine(l.NonAliasAddr())
}

// Isolation runs the full Section IV-A matrix over the three security
// domains, in-place (shared executable page) and out-of-place (an stld at a
// different IPA whose hash collides). Every cell is an independent machine,
// so the matrix runs on the harness worker pool in a fixed cell order.
func Isolation(cfg kernel.Config) IsolationResult {
	type spec struct {
		pred         string
		train, probe kernel.Domain
		inPlace      bool
	}
	var specs []spec
	domains := []kernel.Domain{kernel.DomainUser, kernel.DomainVM, kernel.DomainKernel}
	for _, train := range domains {
		for _, probe := range domains {
			if train == probe {
				continue
			}
			for _, inPlace := range []bool{true, false} {
				specs = append(specs,
					spec{"PSFP", train, probe, inPlace},
					spec{"SSBP", train, probe, inPlace})
			}
		}
	}
	rows := harness.Trials(harness.Workers(cfg.Parallelism), len(specs), func(i int) IsolationRow {
		s := specs[i]
		return isolationTrial(cfg, s.pred, s.train, s.probe, s.inPlace)
	})
	return IsolationResult{Rows: rows}
}

func isolationTrial(cfg kernel.Config, pred string, train, probe kernel.Domain, inPlace bool) IsolationRow {
	l := NewLab(cfg)
	victim := l.K.NewProcess("victim", train)
	attacker := l.K.NewProcess("attacker", probe)
	l.PrepData(victim)
	l.PrepData(attacker)

	// Victim stld, placed with controlled hashes so the out-of-place
	// attacker can collide deterministically.
	vStld := l.PlaceStldHashIn(victim, 0x0aa, 0x0bb)

	var aStld *Stld
	if inPlace {
		// Shared executable page: same IPA (possibly different IVA).
		const shareVA = 0x7700000
		if err := attacker.MmapShared(shareVA, victim, vStld.VA&^uint64(mem.PageMask),
			uint64(len(vStld.Tmpl.Code)), mem.PermR|mem.PermX); err != nil {
			panic(err)
		}
		off := vStld.VA & uint64(mem.PageMask)
		shared := l.finish(attacker, 0, shareVA+off, vStld.Tmpl)
		aStld = &shared
	} else {
		// Out-of-place: the attacker's own stld at a colliding hash.
		aStld = l.PlaceStldHashIn(attacker, 0x0aa, 0x0bb)
	}

	// Train in the victim domain.
	if pred == "PSFP" {
		vStld.Phi(Seq(7, -1)) // C0=4, C3=0
	} else {
		vStld.Phi(Seq(7, -1, 7, -1, 7, -1)) // C3=15
	}

	// Probe from the attacker domain: any stall among the first probes means
	// the trained state is visible.
	obs := aStld.Phi(Seq(4))
	leaked := false
	for _, o := range obs {
		if o.Class == ClassStall {
			leaked = true
		}
	}
	return IsolationRow{Predictor: pred, Train: train, Probe: probe, InPlace: inPlace, Leaked: leaked}
}

// PlaceStldHashIn is PlaceStldHash for an arbitrary process: the frames are
// allocated through the lab process and shared into p at the same VA.
func (l *Lab) PlaceStldHashIn(p *kernel.Process, storeHash, loadHash uint16) *Stld {
	s := l.PlaceStldHash(storeHash, loadHash)
	if p == l.P {
		return s
	}
	// Re-map the same frames into the target process at the same VA.
	if err := p.MmapShared(s.VA&^uint64(mem.PageMask), l.P, s.VA&^uint64(mem.PageMask),
		uint64(len(s.Tmpl.Code)), mem.PermR|mem.PermX); err != nil {
		panic(err)
	}
	in := l.finish(p, 0, s.VA, s.Tmpl)
	return &in
}
