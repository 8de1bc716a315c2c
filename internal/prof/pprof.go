package prof

import (
	"compress/gzip"
	"fmt"
	"io"
	"strings"

	"zenspec/internal/isa"
)

// This file serializes a Snapshot to the pprof profile.proto wire format so
// `go tool pprof` can read it, using a hand-rolled protobuf writer (the repo
// takes no dependencies). Output bytes are deterministic: samples are
// emitted in Snapshot order, the string table is built in first-use order,
// and the gzip header carries no timestamp.

// profile.proto field numbers (message Profile).
const (
	pfSampleType        = 1
	pfSample            = 2
	pfMapping           = 3
	pfLocation          = 4
	pfFunction          = 5
	pfStringTable       = 6
	pfPeriodType        = 11
	pfPeriod            = 12
	pfDefaultSampleType = 14
)

// pbuf is a minimal protobuf writer: varints and length-delimited fields.
type pbuf struct{ b []byte }

func (p *pbuf) varint(v uint64) {
	for v >= 0x80 {
		p.b = append(p.b, byte(v)|0x80)
		v >>= 7
	}
	p.b = append(p.b, byte(v))
}

// intField writes a varint-typed field (wire type 0).
func (p *pbuf) intField(field int, v uint64) {
	p.varint(uint64(field)<<3 | 0)
	p.varint(v)
}

// bytesField writes a length-delimited field (wire type 2).
func (p *pbuf) bytesField(field int, b []byte) {
	p.varint(uint64(field)<<3 | 2)
	p.varint(uint64(len(b)))
	p.b = append(p.b, b...)
}

func (p *pbuf) stringField(field int, s string) { p.bytesField(field, []byte(s)) }

// strtab interns strings, index 0 reserved for "".
type strtab struct {
	idx  map[string]int64
	list []string
}

func newStrtab() *strtab {
	return &strtab{idx: map[string]int64{"": 0}, list: []string{""}}
}

func (t *strtab) id(s string) int64 {
	if i, ok := t.idx[s]; ok {
		return i
	}
	i := int64(len(t.list))
	t.idx[s] = i
	t.list = append(t.list, s)
	return i
}

// sampleTypes is the pprof value schema, one column per Breakdown component
// plus the execution count and the total. "cycles" is the default view.
var sampleTypes = [][2]string{
	{"samples", "count"},
	{"cycles", "cycles"},
	{"issue_wait", "cycles"},
	{"execute", "cycles"},
	{"sq_stall", "cycles"},
	{"replay", "cycles"},
	{"retire_wait", "cycles"},
}

// FrameName returns the pprof function name for a sample: the lower-case
// opcode at its address, e.g. "load@0x400028".
func FrameName(op string, pc uint64) string {
	return fmt.Sprintf("%s@%#x", strings.ToLower(op), pc)
}

// WritePprof writes the snapshot as gzipped pprof protobuf.
func (s *Snapshot) WritePprof(w io.Writer) error {
	st := newStrtab()
	var prof pbuf

	for _, ty := range sampleTypes {
		var vt pbuf
		vt.intField(1, uint64(st.id(ty[0])))
		vt.intField(2, uint64(st.id(ty[1])))
		prof.bytesField(pfSampleType, vt.b)
	}

	// One mapping covering the simulated code range keeps pprof from
	// inventing one.
	var hi uint64
	for _, x := range s.Samples {
		if x.PC+isa.InstBytes > hi {
			hi = x.PC + isa.InstBytes
		}
	}
	binName := st.id("zenspec")

	// Locations and functions: one of each per sample, ids are 1-based
	// Snapshot order.
	for i, x := range s.Samples {
		id := uint64(i + 1)

		var fn pbuf
		fn.intField(1, id)
		name := st.id(FrameName(x.Op, x.PC))
		fn.intField(2, uint64(name))
		fn.intField(3, uint64(name))
		fn.intField(4, uint64(binName))
		prof.bytesField(pfFunction, fn.b)

		var line pbuf
		line.intField(1, id)
		var loc pbuf
		loc.intField(1, id)
		loc.intField(2, 1) // mapping id
		loc.intField(3, x.PC)
		loc.bytesField(4, line.b)
		prof.bytesField(pfLocation, loc.b)

		var sm pbuf
		sm.intField(1, id) // location_id
		for _, v := range [...]int64{
			x.Count + x.Transient, x.Cycles(),
			x.Issue, x.Execute, x.SQStall, x.Replay, x.Retire,
		} {
			sm.intField(2, uint64(v))
		}
		prof.bytesField(pfSample, sm.b)
	}

	var mp pbuf
	mp.intField(1, 1)
	mp.intField(2, 0)
	mp.intField(3, hi)
	mp.intField(5, uint64(binName))
	mp.intField(7, 1) // has_functions: frame names are final, skip symbolization
	prof.bytesField(pfMapping, mp.b)

	var pt pbuf
	pt.intField(1, uint64(st.id("cycles")))
	pt.intField(2, uint64(st.id("cycles")))
	prof.bytesField(pfPeriodType, pt.b)
	prof.intField(pfPeriod, 1)
	prof.intField(pfDefaultSampleType, uint64(st.id("cycles")))

	// The string table goes last so every id above is already interned.
	var tail pbuf
	for _, str := range st.list {
		tail.stringField(pfStringTable, str)
	}

	gz := gzip.NewWriter(w) // zero ModTime: bytes are reproducible
	if _, err := gz.Write(prof.b); err != nil {
		return err
	}
	if _, err := gz.Write(tail.b); err != nil {
		return err
	}
	return gz.Close()
}

// WriteFlame writes the snapshot in folded-stack format — one
// "frame cycles" line per sample, cycles-descending — for flamegraph tools.
func (s *Snapshot) WriteFlame(w io.Writer) error {
	for _, x := range s.Top(0) {
		if _, err := fmt.Fprintf(w, "%s %d\n", FrameName(x.Op, x.PC), x.Cycles()); err != nil {
			return err
		}
	}
	return nil
}
