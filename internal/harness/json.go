package harness

import (
	"bytes"
	"encoding/json"
	"io"
	"math"
	"strconv"
	"unicode/utf8"

	"zenspec/internal/prof"
)

// flushSize is how much encoded output WriteJSON gathers before it hands the
// bytes to its writer.
const flushSize = 64 << 10

// indentSpaces holds the indentation of the deepest hand-written member, a
// profile sample's field, six levels in.
const indentSpaces = "            "

// Stable returns a copy of s with the host-dependent fields (every wall time
// and the resolved worker count) zeroed: the canonical form that two runs of
// the same seed must reproduce byte for byte at any parallelism. s itself is
// left as it is.
func (s SuiteReport) Stable() SuiteReport {
	c := s
	c.Parallelism = 0
	c.Experiments = make([]Report, len(s.Experiments))
	copy(c.Experiments, s.Experiments)
	for i := range c.Experiments {
		c.Experiments[i].WallMS = 0
	}
	return c
}

// StableJSON renders s.Stable() as WriteJSON does, into one buffer grown once
// from the report's size.
func (s SuiteReport) StableJSON() ([]byte, error) {
	var b bytes.Buffer
	b.Grow(s.sizeHint())
	if err := s.Stable().WriteJSON(&b); err != nil {
		return nil, err
	}
	return b.Bytes(), nil
}

// WriteJSON streams s to w as exactly the bytes json.MarshalIndent(s, "",
// "  ") gives, without a trailing newline. It writes the envelopes, metrics
// and profile samples field by field and hands w a chunk every 64 KB, so
// writing a report of any size needs a buffer of about that much.
//
// A report that encoding/json refuses, one holding a NaN or infinite float,
// returns encoding/json's error before anything is written to w. An error
// from w ends the write and is returned.
func (s SuiteReport) WriteJSON(w io.Writer) error {
	faults, err := s.refused()
	if err != nil {
		return err
	}
	e := reportWriter{w: w, buf: make([]byte, 0, min(s.sizeHint(), 2*flushSize))}
	e.suite(s, faults)
	e.flush()
	return e.err
}

// refused returns the error encoding/json gives for s, if any, and the fault
// plan already rendered. Only a float can be refused, and the plan is the one
// part written by encoding/json that holds floats, so rendering it here puts
// every refusal before the first byte. The floats are checked in the order
// they are written, so the error names the value encoding/json names.
func (s SuiteReport) refused() (faults []byte, err error) {
	if s.Faults != nil {
		if faults, err = json.MarshalIndent(s.Faults, indentSpaces[:2], "  "); err != nil {
			return nil, err
		}
	}
	for i := range s.Experiments {
		r := &s.Experiments[i]
		for _, m := range r.Metrics {
			for _, f := range [...]float64{m.Value, m.Min, m.Max} {
				if err := finite(f); err != nil {
					return nil, err
				}
			}
		}
		if err := finite(r.WallMS); err != nil {
			return nil, err
		}
	}
	return faults, nil
}

// finite returns encoding/json's own error for a NaN or infinite f.
func finite(f float64) error {
	if math.IsNaN(f) || math.IsInf(f, 0) {
		_, err := json.Marshal(f)
		return err
	}
	return nil
}

// sizeHint is a little over the size of s's indented JSON. Samples dominate a
// profiled report; one renders to about 230 bytes.
func (s SuiteReport) sizeHint() int {
	n := 4 << 10
	for i := range s.Experiments {
		r := &s.Experiments[i]
		n += 4<<10 + len(r.Detail)
		if r.Profile != nil {
			n += 240 * len(r.Profile.Samples)
		}
	}
	return n
}

// reportWriter appends a report's indented JSON to buf and hands buf to w
// each time it passes flushSize. After the first error it writes nothing
// more.
type reportWriter struct {
	w   io.Writer
	buf []byte
	err error
}

func (e *reportWriter) flush() {
	if e.err == nil && len(e.buf) > 0 {
		_, e.err = e.w.Write(e.buf)
	}
	e.buf = e.buf[:0]
}

// nested appends v as json.MarshalIndent renders it as a member's value at
// depth levels of indentation. It serves the small, rare parts of a report,
// for which reflection costs less code than a hand-written encoder and next
// to no time.
func (e *reportWriter) nested(v any, depth int) {
	j, err := json.MarshalIndent(v, indentSpaces[:2*depth], "  ")
	if err != nil {
		e.err = err
		return
	}
	e.buf = append(e.buf, j...)
}

func (e *reportWriter) suite(s SuiteReport, faults []byte) {
	const d = 1
	b := append(e.buf, '{')
	b = member(b, true, d, "seed")
	b = strconv.AppendInt(b, s.Seed, 10)
	b = member(b, false, d, "quick")
	b = strconv.AppendBool(b, s.Quick)
	b = member(b, false, d, "parallelism")
	b = strconv.AppendInt(b, int64(s.Parallelism), 10)
	if faults != nil {
		b = member(b, false, d, "faults")
		b = append(b, faults...)
	}
	b = member(b, false, d, "experiments")
	switch {
	case s.Experiments == nil:
		b = append(b, "null"...)
	case len(s.Experiments) == 0:
		b = append(b, "[]"...)
	default:
		b = append(b, '[')
		for i := range s.Experiments {
			if i > 0 {
				b = append(b, ',')
			}
			e.buf = newline(b, d+1)
			e.report(&s.Experiments[i])
			if len(e.buf) >= flushSize {
				e.flush()
			}
			if e.err != nil {
				return
			}
			b = e.buf
		}
		b = append(newline(b, d), ']')
	}
	e.buf = append(newline(b, d-1), '}')
}

func (e *reportWriter) report(r *Report) {
	const d = 3
	b := append(e.buf, '{')
	b = member(b, true, d, "id")
	b = appendString(b, r.ID)
	b = member(b, false, d, "title")
	b = appendString(b, r.Title)
	b = member(b, false, d, "paper")
	b = appendString(b, r.Paper)
	b = member(b, false, d, "metrics")
	switch {
	case r.Metrics == nil:
		b = append(b, "null"...)
	case len(r.Metrics) == 0:
		b = append(b, "[]"...)
	default:
		b = append(b, '[')
		for i := range r.Metrics {
			if i > 0 {
				b = append(b, ',')
			}
			b = appendMetric(newline(b, d+1), &r.Metrics[i])
		}
		b = append(newline(b, d), ']')
	}
	b = member(b, false, d, "pass")
	b = strconv.AppendBool(b, r.Pass)
	if r.Detail != "" {
		b = member(b, false, d, "detail")
		b = appendString(b, r.Detail)
	}
	if r.Status != "" {
		b = member(b, false, d, "status")
		b = appendString(b, r.Status)
	}
	e.buf = b
	if r.Trouble != nil {
		e.buf = member(e.buf, false, d, "trouble")
		e.nested(r.Trouble, d)
	}
	if r.Error != "" {
		e.buf = member(e.buf, false, d, "error")
		e.buf = appendString(e.buf, r.Error)
	}
	if r.Micro != nil {
		e.buf = member(e.buf, false, d, "micro")
		e.nested(r.Micro, d)
	}
	if r.Profile != nil {
		e.buf = member(e.buf, false, d, "profile")
		e.profile(r.Profile)
	}
	if e.err != nil {
		return
	}
	b = member(e.buf, false, d, "wall_ms")
	b = appendFloat(b, r.WallMS)
	e.buf = append(newline(b, d-1), '}')
}

func appendMetric(b []byte, m *Metric) []byte {
	const d = 5
	b = append(b, '{')
	b = member(b, true, d, "name")
	b = appendString(b, m.Name)
	b = member(b, false, d, "value")
	b = appendFloat(b, m.Value)
	b = member(b, false, d, "min")
	b = appendFloat(b, m.Min)
	b = member(b, false, d, "max")
	b = appendFloat(b, m.Max)
	b = member(b, false, d, "pass")
	b = strconv.AppendBool(b, m.Pass)
	return append(newline(b, d-1), '}')
}

func (e *reportWriter) profile(p *prof.Snapshot) {
	const d = 4
	b := append(e.buf, '{')
	b = member(b, true, d, "total_cycles")
	b = strconv.AppendInt(b, p.TotalCycles, 10)
	if len(p.Samples) > 0 {
		b = member(b, false, d, "samples")
		b = append(b, '[')
		for i := range p.Samples {
			if i > 0 {
				b = append(b, ',')
			}
			b = appendSample(newline(b, d+1), &p.Samples[i])
			if len(b) >= flushSize {
				e.buf = b
				e.flush()
				if e.err != nil {
					return
				}
				b = e.buf
			}
		}
		b = append(newline(b, d), ']')
	}
	e.buf = b
	if len(p.Squashes) > 0 {
		e.buf = member(e.buf, false, d, "squashes")
		e.nested(p.Squashes, d)
	}
	e.buf = append(newline(e.buf, d-1), '}')
}

func appendSample(b []byte, x *prof.Sample) []byte {
	const d = 6
	b = append(b, '{')
	b = member(b, true, d, "pc")
	b = strconv.AppendUint(b, x.PC, 10)
	b = member(b, false, d, "op")
	b = appendString(b, x.Op)
	b = member(b, false, d, "count")
	b = strconv.AppendInt(b, x.Count, 10)
	if x.Transient != 0 {
		b = member(b, false, d, "transient")
		b = strconv.AppendInt(b, x.Transient, 10)
	}
	b = member(b, false, d, "issue")
	b = strconv.AppendInt(b, x.Issue, 10)
	b = member(b, false, d, "execute")
	b = strconv.AppendInt(b, x.Execute, 10)
	b = member(b, false, d, "sq_stall")
	b = strconv.AppendInt(b, x.SQStall, 10)
	b = member(b, false, d, "replay")
	b = strconv.AppendInt(b, x.Replay, 10)
	b = member(b, false, d, "retire")
	b = strconv.AppendInt(b, x.Retire, 10)
	return append(newline(b, d-1), '}')
}

// newline appends a newline and depth levels of indentation.
func newline(b []byte, depth int) []byte {
	b = append(b, '\n')
	return append(b, indentSpaces[:2*depth]...)
}

// member appends what the indenter puts before an object member: a comma
// unless it is the first, a newline, depth levels of indentation, and the
// member's name quoted, with its colon. Names are plain ASCII and need no
// escaping.
func member(b []byte, first bool, depth int, name string) []byte {
	if !first {
		b = append(b, ',')
	}
	b = newline(b, depth)
	b = append(b, '"')
	b = append(b, name...)
	return append(b, '"', ':', ' ')
}

// appendFloat appends a finite f as encoding/json writes a float64: 'f'
// format, or 'e' below 1e-6 and from 1e21, with a one-digit negative
// exponent written without its leading zero.
func appendFloat(b []byte, f float64) []byte {
	format := byte('f')
	if a := math.Abs(f); a != 0 && (a < 1e-6 || a >= 1e21) {
		format = 'e'
	}
	b = strconv.AppendFloat(b, f, format, -1, 64)
	if n := len(b); format == 'e' && n >= 4 && b[n-4] == 'e' && b[n-3] == '-' && b[n-2] == '0' {
		b[n-2] = b[n-1]
		b = b[:n-1]
	}
	return b
}

const hexDigits = "0123456789abcdef"

// appendString appends s quoted as encoding/json quotes a string by default:
// '"' and '\\' backslashed; \b, \f, \n, \r and \t by name; other control
// bytes, '<', '>' and '&' as \u00XX; U+2028 and U+2029 as \u2028 and \u2029;
// and each byte of invalid UTF-8 as \ufffd.
func appendString(b []byte, s string) []byte {
	b = append(b, '"')
	start := 0
	for i := 0; i < len(s); {
		c := s[i]
		if c < utf8.RuneSelf {
			if c >= ' ' && c != '"' && c != '\\' && c != '<' && c != '>' && c != '&' {
				i++
				continue
			}
			b = append(b, s[start:i]...)
			switch c {
			case '"', '\\':
				b = append(b, '\\', c)
			case '\b':
				b = append(b, '\\', 'b')
			case '\f':
				b = append(b, '\\', 'f')
			case '\n':
				b = append(b, '\\', 'n')
			case '\r':
				b = append(b, '\\', 'r')
			case '\t':
				b = append(b, '\\', 't')
			default:
				b = append(b, '\\', 'u', '0', '0', hexDigits[c>>4], hexDigits[c&0xf])
			}
			i++
			start = i
			continue
		}
		r, size := utf8.DecodeRuneInString(s[i:])
		switch {
		case r == utf8.RuneError && size == 1:
			b = append(b, s[start:i]...)
			b = append(b, `\ufffd`...)
		case r == '\u2028' || r == '\u2029':
			b = append(b, s[start:i]...)
			b = append(b, '\\', 'u', '2', '0', '2', hexDigits[r&0xf])
		default:
			i += size
			continue
		}
		i += size
		start = i
	}
	b = append(b, s[start:]...)
	return append(b, '"')
}
