package harness

import (
	"bytes"
	"crypto/sha256"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand"
	"reflect"
	"runtime"
	"strings"
	"testing"

	"zenspec/internal/prof"
)

// marshalStable is StableJSON as it was before WriteJSON: json.MarshalIndent
// of the report with the host fields zeroed. The writer is compared with it.
func marshalStable(s SuiteReport) ([]byte, error) {
	c := s
	c.Parallelism = 0
	c.Experiments = make([]Report, len(s.Experiments))
	copy(c.Experiments, s.Experiments)
	for i := range c.Experiments {
		c.Experiments[i].WallMS = 0
	}
	return json.MarshalIndent(c, "", "  ")
}

// checkReportJSON requires WriteJSON and StableJSON to give
// json.MarshalIndent's bytes for s, or, where encoding/json refuses s, its
// error with nothing written.
func checkReportJSON(t *testing.T, s SuiteReport) {
	t.Helper()
	want, wantErr := json.MarshalIndent(s, "", "  ")
	var got bytes.Buffer
	err := s.WriteJSON(&got)
	compareJSON(t, "WriteJSON", got.Bytes(), err, want, wantErr)

	want, wantErr = marshalStable(s)
	stable, err := s.StableJSON()
	compareJSON(t, "StableJSON", stable, err, want, wantErr)
}

func compareJSON(t *testing.T, what string, got []byte, err error, want []byte, wantErr error) {
	t.Helper()
	switch {
	case wantErr != nil:
		if err == nil || err.Error() != wantErr.Error() || len(got) != 0 {
			t.Fatalf("%s: got error %v after %d bytes; want %v before any", what, err, len(got), wantErr)
		}
	case err != nil:
		t.Fatalf("%s: %v; encoding/json gives\n%s", what, err, want)
	case !bytes.Equal(got, want):
		i := 0
		for i < len(got) && i < len(want) && got[i] == want[i] {
			i++
		}
		lo := max(i-80, 0)
		t.Fatalf("%s differs from json.MarshalIndent at byte %d:\ngot  …%q\nwant …%q",
			what, i, got[lo:min(i+40, len(got))], want[lo:min(i+40, len(want))])
	}
}

// reportGen fills a value of any type reachable from SuiteReport through
// reflection, so a field added to any of them later is generated and compared
// with no change here. Each value is zero (nil, empty) or set, with the
// fuzzed string or float in some of the set ones. A full generator sets every
// value, and puts the fuzzed string in every string and the fuzzed float in
// every float.
type reportGen struct {
	rng  *rand.Rand
	str  string
	x    float64
	full bool
	// seen, when non-nil, maps each path the generator reached to the
	// classes of value it could take there, each true once it took it.
	seen map[string]map[string]bool
}

func genReport(seed int64, str string, x float64, full bool, seen map[string]map[string]bool) SuiteReport {
	g := reportGen{rng: rand.New(rand.NewSource(seed)), str: str, x: x, full: full, seen: seen}
	var s SuiteReport
	g.fill(reflect.ValueOf(&s).Elem(), "SuiteReport")
	return s
}

// choose picks the value at path by index into classes, which names the
// class of each choice; the last choice is the fuzzed value, or a set one.
func (g *reportGen) choose(path string, classes ...string) int {
	c := g.rng.Intn(len(classes))
	if g.full {
		c = len(classes) - 1
	}
	if g.seen != nil {
		m := g.seen[path]
		if m == nil {
			m = map[string]bool{}
			g.seen[path] = m
		}
		for _, cl := range classes {
			m[cl] = m[cl] || false
		}
		m[classes[c]] = true
	}
	return c
}

func (g *reportGen) fill(v reflect.Value, path string) {
	switch v.Kind() {
	case reflect.Struct:
		t := v.Type()
		for i := 0; i < t.NumField(); i++ {
			if f := t.Field(i); f.IsExported() {
				g.fill(v.Field(i), t.Name()+"."+f.Name)
			}
		}
	case reflect.Pointer:
		if g.choose(path, "nil", "set", "set") == 0 {
			return
		}
		v.Set(reflect.New(v.Type().Elem()))
		g.fill(v.Elem(), path)
	case reflect.Slice:
		switch g.choose(path, "nil", "empty", "set", "set") {
		case 0:
		case 1:
			v.Set(reflect.MakeSlice(v.Type(), 0, 0))
		default:
			n := 1 + g.rng.Intn(3)
			s := reflect.MakeSlice(v.Type(), n, n)
			for i := 0; i < s.Len(); i++ {
				g.fill(s.Index(i), path+"[]")
			}
			v.Set(s)
		}
	case reflect.Map:
		switch g.choose(path, "nil", "empty", "set", "set") {
		case 0:
		case 1:
			v.Set(reflect.MakeMap(v.Type()))
		default:
			m := reflect.MakeMap(v.Type())
			for i := 1 + g.rng.Intn(3); i > 0; i-- {
				k := reflect.New(v.Type().Key()).Elem()
				g.fill(k, path+"{key}")
				e := reflect.New(v.Type().Elem()).Elem()
				g.fill(e, path+"{}")
				m.SetMapIndex(k, e)
			}
			v.Set(m)
		}
	case reflect.String:
		switch g.choose(path, "zero", "set", "set", "set") {
		case 1:
			b := make([]byte, g.rng.Intn(12))
			g.rng.Read(b)
			v.SetString(string(b))
		case 2:
			v.SetString(fmt.Sprintf("s%d", g.rng.Intn(100)))
		case 3:
			v.SetString(g.str)
		}
	case reflect.Float64:
		switch g.choose(path, "zero", "set", "set", "set") {
		case 1:
			v.SetFloat(g.rng.NormFloat64() * math.Pow(10, float64(g.rng.Intn(60)-30)))
		case 2:
			v.SetFloat(-g.x)
		case 3:
			v.SetFloat(g.x)
		}
	case reflect.Int, reflect.Int64:
		switch g.choose(path, "zero", "set", "set") {
		case 1:
			v.SetInt(g.rng.Int63n(1000) - 500)
		case 2:
			v.SetInt(g.rng.Int63() - g.rng.Int63())
		}
	case reflect.Uint64:
		switch g.choose(path, "zero", "set", "set") {
		case 1:
			v.SetUint(uint64(g.rng.Intn(1000)))
		case 2:
			v.SetUint(g.rng.Uint64())
		}
	case reflect.Bool:
		v.SetBool(g.choose(path, "zero", "set") == 1)
	default:
		panic(fmt.Sprintf("reportGen: %s is a %s, which the generator does not fill", path, v.Kind()))
	}
}

// reportSeed is one FuzzReportJSON input: the generator's seed and the
// string and float it places.
type reportSeed struct {
	seed int64
	str  string
	x    float64
}

// reportSeeds are FuzzReportJSON's seed corpus: each string escape class and
// each float encoding/json formats by its own rule, NaN and the infinities
// among them, over reports whose shapes TestReportSeedsCoverEveryChoice
// checks.
func reportSeeds() []reportSeed {
	strs := []string{
		"", "plain", `quote " and \ backslash`, "<script>&amp;</script>",
		"\b\f\n\r\t", "\x00\x01\x1f\x7f", "line\u2028para\u2029", "\xff\xfe",
		"cut \xe2\x80", "héllo — ✓ 😀", "\u00e9\ufffd",
	}
	xs := []float64{
		0, math.Copysign(0, -1), 1e-6, math.Nextafter(1e-6, 0), 1e-7, 1.5e-10,
		1e21, math.Nextafter(1e21, 0), 5e-324, 1e-310, -2.5, 123456.789,
		math.MaxFloat64, math.NaN(), math.Inf(1), math.Inf(-1),
	}
	var out []reportSeed
	for i, s := range strs {
		out = append(out, reportSeed{int64(i), s, 0.25})
	}
	for i, x := range xs {
		out = append(out, reportSeed{int64(100 + i), "s", x})
	}
	return out
}

// FuzzReportJSON compares WriteJSON and StableJSON with json.MarshalIndent on
// two generated reports carrying the fuzzed string and float: one of random
// shape, and one in which every value is set and every string and float is
// the fuzzed one.
func FuzzReportJSON(f *testing.F) {
	for _, s := range reportSeeds() {
		f.Add(s.seed, s.str, s.x)
	}
	f.Fuzz(func(t *testing.T, seed int64, str string, x float64) {
		checkReportJSON(t, genReport(seed, str, x, false, nil))
		checkReportJSON(t, genReport(seed, str, x, true, nil))
	})
}

// TestReportSeedsCoverEveryChoice: across the seed corpus, every field of
// every type the generator reaches is both zero and set, and every slice,
// map and pointer nil, empty and set, so the seeds hold a nil and an empty
// Metrics, a nil histogram, zero and non-zero Transient, and so on.
func TestReportSeedsCoverEveryChoice(t *testing.T) {
	seen := map[string]map[string]bool{}
	for _, s := range reportSeeds() {
		genReport(s.seed, s.str, s.x, false, seen)
	}
	for path, classes := range seen {
		for cl, ok := range classes {
			if !ok {
				t.Errorf("no seed makes %s %s", path, cl)
			}
		}
	}
	if len(seen["Sample.Transient"]) == 0 || len(seen["MetricsSnapshot.Histograms{}"]) == 0 {
		t.Errorf("the seeds never reach a profile sample or a histogram: %d paths", len(seen))
	}
}

// TestWriteJSONFlushesAsItGoes: a report with 100,000 profile samples streams
// to its writer in chunks, allocating under 1 MiB in all, and gives
// json.MarshalIndent's bytes.
func TestWriteJSONFlushesAsItGoes(t *testing.T) {
	p := &prof.Snapshot{TotalCycles: 1 << 40, Samples: make([]prof.Sample, 100_000),
		Squashes: []prof.SquashSample{{PC: 0x401000, Kind: "stl-bypass", Count: 3}}}
	for i := range p.Samples {
		p.Samples[i] = prof.Sample{PC: 0x400000 + 4*uint64(i), Op: "load", Count: int64(i),
			Transient: int64(i % 3), Issue: 7, Execute: int64(i) * 3, Retire: 1}
	}
	s := SuiteReport{Seed: 42, Experiments: []Report{{ID: "big", Metrics: []Metric{}, Profile: p, WallMS: 1.5}}}

	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	if err := s.WriteJSON(io.Discard); err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&after)
	if n := after.TotalAlloc - before.TotalAlloc; n >= 1<<20 {
		t.Errorf("WriteJSON of 100,000 samples allocated %d bytes, want under 1 MiB", n)
	}

	h := sha256.New()
	if err := s.WriteJSON(h); err != nil {
		t.Fatal(err)
	}
	want, err := json.MarshalIndent(s, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if sum := sha256.Sum256(want); !bytes.Equal(h.Sum(nil), sum[:]) {
		t.Error("WriteJSON of 100,000 samples differs from json.MarshalIndent")
	}
}

// failAfter accepts n bytes, then fails every write.
type failAfter struct{ n int }

func (w *failAfter) Write(p []byte) (int, error) {
	if len(p) > w.n {
		return 0, io.ErrShortWrite
	}
	w.n -= len(p)
	return len(p), nil
}

// TestWriteJSONReturnsWriteErrors: a writer's error ends the write and comes
// back, whether it fails at once or part way through.
func TestWriteJSONReturnsWriteErrors(t *testing.T) {
	r := Report{ID: "x", Detail: strings.Repeat("d", flushSize)}
	s := SuiteReport{Experiments: []Report{r, r, r, r}}
	for _, n := range []int{0, 2 * flushSize} {
		w := &failAfter{n}
		if err := s.WriteJSON(w); !errors.Is(err, io.ErrShortWrite) {
			t.Errorf("writer failing after %d bytes: err = %v, want io.ErrShortWrite", n, err)
		}
		if n > 0 && w.n == n {
			t.Errorf("writer failing after %d bytes got no chunk before the failure", n)
		}
	}
}
