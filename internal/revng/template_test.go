package revng

import (
	"reflect"
	"slices"
	"sync"
	"sync/atomic"
	"testing"

	"zenspec/internal/cache"
	"zenspec/internal/fault"
	"zenspec/internal/kernel"
	"zenspec/internal/obs"
	"zenspec/internal/pipeline"
	"zenspec/internal/pmc"
	"zenspec/internal/predict"
)

// labTrace is everything a lab script observed, and the machine state it
// left behind.
type labTrace struct {
	Cls      Classifier
	Obs      []Observation
	Slide    [2]int // SSBP slide attempts, and 1 if it found a collider
	Counters []predict.Counters
	IPAs     [][2]uint64
	SSBP     [][]struct {
		Tag    uint16
		C3, C4 int
	}
	PMCs   []pmc.Counters
	Cycles []int64
	Stats  []predict.Stats
	Cache  cache.Stats
	BusNow int64
}

// runLabScript takes l through every kind of step the experiments take:
// φ sequences, hash-controlled and random placements, a PSFP-colliding pair,
// a one-page SSBP slide, a scheduler tick, an stld on the second hardware
// thread, and enough primes to evict from a full SSBP, which draws its
// replacement generator.
func runLabScript(l *Lab) labTrace {
	tr := labTrace{Cls: l.Cls}
	s := l.PlaceStld()
	tr.Obs = append(tr.Obs, s.Phi(Seq(7, -1, 7, -1, 7, -1, 40))...)
	h := l.PlaceStldHash(0x123, 0x456)
	h2 := l.PlaceStldHash(0x123, 0x456)
	tr.Obs = append(tr.Obs, h.Phi(Seq(7, -1))...)
	tr.Obs = append(tr.Obs, h2.Phi(Seq(2, -1))...)
	r := l.PlaceStldRandom(pseudoRand(5))
	tr.Obs = append(tr.Obs, r.Phi(Seq(3, -1, 3))...)
	slider := l.NewSlider(l.P, 1, s.Tmpl)
	attempts, _, ok := slider.SSBPCollisionSearch(s, 1)
	tr.Slide[0] = attempts
	if ok {
		tr.Slide[1] = 1
	}
	l.Tick()
	tr.Obs = append(tr.Obs, s.Run(false), s.Run(true))
	c1 := l.PlaceStldIn(l.P, 1)
	tr.Obs = append(tr.Obs, c1.Phi(Seq(7, -1, 7, -1))...)
	placed := []*Stld{s, h, h2, r, c1}
	for i := 0; i < 2*predict.SSBPWays; i++ {
		p := l.PlaceStldHash(uint16(0x700+i), uint16(0x900+i))
		tr.Obs = append(tr.Obs, p.Phi(Seq(-1, 1))...)
		placed = append(placed, p)
	}
	tr.Obs = append(tr.Obs, s.Phi(Seq(3, -1))...)
	for _, p := range placed {
		tr.Counters = append(tr.Counters, p.Counters())
		tr.IPAs = append(tr.IPAs, [2]uint64{p.StoreIPA, p.LoadIPA})
	}
	for i := range 2 { // every shape boots the default two hardware threads
		cpu := l.K.CPU(i)
		tr.SSBP = append(tr.SSBP, cpu.Unit.SSBP().Snapshot())
		tr.PMCs = append(tr.PMCs, cpu.Core.PMC().Snapshot())
		tr.Cycles = append(tr.Cycles, cpu.Core.Cycle())
		tr.Stats = append(tr.Stats, cpu.Unit.Stats())
	}
	tr.Cache = l.K.Caches().Stats()
	tr.BusNow = l.K.Bus().Now()
	return tr
}

// TestLabTemplateExact runs the same script on a lab NewLab copies from its
// shape's template and on a lab booted and calibrated directly, for every
// seed-free shape the suite uses, at seeds far apart; the two must agree on
// every observation and on the state left behind. The template of a shape is
// built at whichever seed asks first, so later seeds check the re-seeding.
func TestLabTemplateExact(t *testing.T) {
	never := func() bool { return false }
	shapes := []struct {
		name string
		cfg  kernel.Config
	}{
		{"default", kernel.Config{}},
		{"sq64", kernel.Config{Pipeline: pipeline.Config{SQSize: 64}}},
		{"ssbd", kernel.Config{SSBD: true}},
		{"psfp8", kernel.Config{PredictorConfig: predict.Config{PSFPSize: 8}}},
		{"flush-ssbp", kernel.Config{FlushSSBPOnSwitch: true}},
		{"quantum40", kernel.Config{TimerQuantum: 40}},
		{"stop", kernel.Config{Pipeline: pipeline.Config{Stop: never}}},
	}
	for _, sh := range shapes {
		t.Run(sh.name, func(t *testing.T) {
			for _, seed := range []int64{1, 42, 1<<40 + 3} {
				cfg := sh.cfg
				cfg.Seed = seed
				got, want := runLabScript(NewLab(cfg)), runLabScript(bootLab(cfg))
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("seed %d: copied lab differs from booted lab:\ncopy %+v\nboot %+v", seed, got, want)
				}
				// Under SSBD every run stalls alike and nothing trains, so
				// the slide finds nothing and nothing fills the SSBP.
				if want.Stats[1].Verifies == 0 || !cfg.SSBD &&
					(want.Slide[1] == 0 || len(want.SSBP[0]) != predict.SSBPWays) {
					t.Fatalf("seed %d: the script left a step unexercised: %+v", seed, want)
				}
			}
		})
	}
}

// TestLabTemplateSurvivesCancelledTrial: the first lab of a shape belongs
// to a trial whose Stop fires at once. The template is built without that
// Stop, so the trial gets a copy that polls its Stop and cancels at its
// first run, and the next lab of the shape is whole.
func TestLabTemplateSurvivesCancelledTrial(t *testing.T) {
	shape := kernel.Config{Pipeline: pipeline.Config{EpisodeCap: 63}}
	cancelled := shape
	cancelled.Pipeline.Stop = func() bool { return true }
	s := NewLab(cancelled).PlaceStld()
	func() {
		defer func() {
			if r := recover(); r != pipeline.ErrCancelled {
				t.Fatalf("first run of a cancelled trial's lab: recovered %v, want ErrCancelled", r)
			}
		}()
		s.Run(false)
	}()
	shape.Seed = 9
	if got, want := runLabScript(NewLab(shape)), runLabScript(bootLab(shape)); !reflect.DeepEqual(got, want) {
		t.Fatal("the lab after a cancelled trial differs from a booted lab")
	}
}

// TestLabBootsWhenCalibrationIsSeeded covers each condition under which
// calibration depends on the seed. For each, a lab copied from one booted
// at another seed would differ from a lab booted at this one, and NewLab
// gives the booted lab.
func TestLabBootsWhenCalibrationIsSeeded(t *testing.T) {
	plan := fault.Default()
	cases := []struct {
		name string
		cfg  kernel.Config
	}{
		{"jitter", kernel.Config{TimerJitter: 18, TimerQuantum: 40}},
		{"faults", kernel.Config{Faults: plan}},
		{"salt-per-domain", kernel.Config{SaltPerDomain: true}},
		{"rotate-salt", kernel.Config{RotateSalt: true}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg := tc.cfg
			cfg.Seed = 42
			want := runLabScript(bootLab(cfg))
			other := cfg
			other.Seed = 7
			if copied := runLabScript(bootLab(other).copyFor(cfg)); reflect.DeepEqual(copied, want) {
				t.Fatal("a copy of a lab booted at another seed matches; the case does not depend on the seed")
			}
			// Were NewLab to copy here, the template would come from seed 7.
			NewLab(other)
			if got := runLabScript(NewLab(cfg)); !reflect.DeepEqual(got, want) {
				t.Fatalf("NewLab differs from a booted lab:\ngot  %+v\nboot %+v", got, want)
			}
		})
	}
	t.Run("observer", func(t *testing.T) {
		// An observer must see calibration: NewLab boots, so events arrive
		// before the caller's first run, as many as a booted lab emits.
		var n [2]int
		for i, newLab := range []func(kernel.Config) *Lab{NewLab, bootLab} {
			cfg := kernel.Config{Seed: 42, Observer: obs.ObserverFunc(func(obs.Event) { n[i]++ })}
			newLab(cfg)
		}
		if n[0] == 0 || n[0] != n[1] {
			t.Fatalf("observer saw %d events in NewLab, %d in a booted lab", n[0], n[1])
		}
	})
}

// TestLabShapeKeysEveryField sets each kernel.Config field, and each field
// of its pipeline and predictor configs, to a non-zero value in turn: a
// field calibration can depend on must select a different template, and an
// excluded one the same template.
func TestLabShapeKeysEveryField(t *testing.T) {
	excluded := map[string]bool{
		"Seed": true, "Parallelism": true, "Observer": true, "ObserverClasses": true,
		"Faults": true, "Pipeline.Stop": true,
	}
	type leaf struct {
		name  string
		index []int
	}
	var leaves []leaf
	var walk func(typ reflect.Type, prefix string, index []int)
	walk = func(typ reflect.Type, prefix string, index []int) {
		for i := 0; i < typ.NumField(); i++ {
			f := typ.Field(i)
			name, idx := prefix+f.Name, append(slices.Clone(index), i)
			if f.Type.Kind() == reflect.Struct && !excluded[name] {
				walk(f.Type, name+".", idx)
				continue
			}
			leaves = append(leaves, leaf{name, idx})
		}
	}
	walk(reflect.TypeOf(kernel.Config{}), "", nil)
	base := shapeOf(kernel.Config{})
	keyed := 0
	for _, lf := range leaves {
		var cfg kernel.Config
		f := reflect.ValueOf(&cfg).Elem().FieldByIndex(lf.index)
		switch f.Kind() {
		case reflect.Bool:
			f.SetBool(true)
		case reflect.Int, reflect.Int64:
			f.SetInt(3)
		case reflect.Uint64:
			f.SetUint(3)
		case reflect.Func:
			f.Set(reflect.ValueOf(func() bool { return false }))
		case reflect.Interface:
			f.Set(reflect.ValueOf(obs.ObserverFunc(func(obs.Event) {})))
		case reflect.Slice:
			f.Set(reflect.ValueOf([]obs.Class{obs.ClassInst}))
		case reflect.Struct:
			f.Set(reflect.ValueOf(fault.Default()))
		default:
			t.Fatalf("%s: no non-zero value for kind %v", lf.name, f.Kind())
		}
		switch differs := shapeOf(cfg) != base; {
		case excluded[lf.name] && differs:
			t.Errorf("%s is excluded from the shape but selects another template", lf.name)
		case !excluded[lf.name] && !differs:
			t.Errorf("%s is missing from the shape: a lab setting it would copy the default template", lf.name)
		case differs:
			keyed++
		}
	}
	if keyed < 20 {
		t.Fatalf("only %d keyed fields found; the walk missed the nested configs", keyed)
	}
}

// freshShapes numbers the shapes TestLabTemplateConcurrent asks for.
var freshShapes atomic.Int32

// TestLabTemplateConcurrent asks for a shape nothing asked for before, on
// every run of it under -count too, from eight goroutines at once; each
// gets a lab equal to one booted at its seed.
func TestLabTemplateConcurrent(t *testing.T) {
	shape := kernel.Config{Pipeline: pipeline.Config{LQSize: 100 + int(freshShapes.Add(1))}}
	got := make([]labTrace, 8)
	var wg sync.WaitGroup
	for i := range got {
		wg.Add(1)
		go func() {
			defer wg.Done()
			cfg := shape
			cfg.Seed = int64(i)
			got[i] = runLabScript(NewLab(cfg))
		}()
	}
	wg.Wait()
	for i := range got {
		cfg := shape
		cfg.Seed = int64(i)
		if want := runLabScript(bootLab(cfg)); !reflect.DeepEqual(got[i], want) {
			t.Fatalf("seed %d: concurrently copied lab differs from booted lab", i)
		}
	}
}
