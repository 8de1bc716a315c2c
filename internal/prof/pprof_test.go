package prof

import (
	"compress/gzip"
	"fmt"
	"io"
)

// parsePprof reads back the sample values of a profile written by WritePprof,
// keyed by frame name. It understands just enough of the wire format for
// the tests; sample values are returned in sampleTypes order.
func parsePprof(r io.Reader) (map[string][]int64, error) {
	gz, err := gzip.NewReader(r)
	if err != nil {
		return nil, err
	}
	raw, err := io.ReadAll(gz)
	if err != nil {
		return nil, err
	}
	if err := gz.Close(); err != nil {
		return nil, err
	}

	type rawSample struct {
		locs []uint64
		vals []int64
	}
	var samples []rawSample
	locFunc := map[uint64]uint64{} // location id → function id
	funcName := map[uint64]int64{} // function id → name string index
	var strs []string

	next := func(b []byte) (uint64, []byte, error) {
		var v uint64
		for i := 0; i < len(b); i++ {
			v |= uint64(b[i]&0x7f) << (7 * uint(i))
			if b[i] < 0x80 {
				return v, b[i+1:], nil
			}
		}
		return 0, nil, fmt.Errorf("prof: truncated varint")
	}
	fields := func(b []byte, fn func(field int, wire int, v uint64, sub []byte) error) error {
		for len(b) > 0 {
			var key uint64
			var err error
			key, b, err = next(b)
			if err != nil {
				return err
			}
			field, wire := int(key>>3), int(key&7)
			switch wire {
			case 0:
				var v uint64
				v, b, err = next(b)
				if err != nil {
					return err
				}
				if err := fn(field, wire, v, nil); err != nil {
					return err
				}
			case 2:
				var n uint64
				n, b, err = next(b)
				if err != nil || uint64(len(b)) < n {
					return fmt.Errorf("prof: truncated field")
				}
				if err := fn(field, wire, 0, b[:n]); err != nil {
					return err
				}
				b = b[n:]
			default:
				return fmt.Errorf("prof: unsupported wire type %d", wire)
			}
		}
		return nil
	}

	err = fields(raw, func(field, wire int, v uint64, sub []byte) error {
		switch field {
		case pfSample:
			var s rawSample
			if err := fields(sub, func(f, w int, v uint64, _ []byte) error {
				switch f {
				case 1:
					s.locs = append(s.locs, v)
				case 2:
					s.vals = append(s.vals, int64(v))
				}
				return nil
			}); err != nil {
				return err
			}
			samples = append(samples, s)
		case pfLocation:
			var id, fid uint64
			if err := fields(sub, func(f, w int, v uint64, line []byte) error {
				switch f {
				case 1:
					id = v
				case 4:
					return fields(line, func(f, w int, v uint64, _ []byte) error {
						if f == 1 {
							fid = v
						}
						return nil
					})
				}
				return nil
			}); err != nil {
				return err
			}
			locFunc[id] = fid
		case pfFunction:
			var id uint64
			var name int64
			if err := fields(sub, func(f, w int, v uint64, _ []byte) error {
				switch f {
				case 1:
					id = v
				case 2:
					name = int64(v)
				}
				return nil
			}); err != nil {
				return err
			}
			funcName[id] = name
		case pfStringTable:
			strs = append(strs, string(sub))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}

	out := make(map[string][]int64, len(samples))
	for _, s := range samples {
		if len(s.locs) == 0 {
			continue
		}
		ni := funcName[locFunc[s.locs[0]]]
		if ni < 0 || int(ni) >= len(strs) {
			return nil, fmt.Errorf("prof: sample names out-of-range string %d", ni)
		}
		out[strs[ni]] = s.vals
	}
	return out, nil
}
