// Package suite registers every row of DESIGN.md's per-experiment index on
// the harness registry: one descriptor per table and figure with the
// paper's expectation encoded as inclusive pass bands. The text report, the
// JSON report, and CLI experiment selection all derive from these
// descriptors — there is no second list anywhere.
package suite

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"reflect"
	"strings"

	"zenspec/internal/attack"
	"zenspec/internal/fault"
	"zenspec/internal/harness"
	"zenspec/internal/isa"
	"zenspec/internal/kernel"
	"zenspec/internal/predict"
	"zenspec/internal/revng"
	"zenspec/internal/sandbox"
	"zenspec/internal/speccheck"
	"zenspec/internal/workload"
)

var registry = build()

// Registry returns the process-wide experiment registry. It is built once
// and never mutated afterwards, so concurrent readers are safe.
func Registry() *harness.Registry { return registry }

// secretBytes derives a reproducible attack secret from the run seed.
func secretBytes(seed int64, n int) []byte {
	r := rand.New(rand.NewSource(seed))
	b := make([]byte, n)
	for i := range b {
		b[i] = byte(r.Intn(256))
	}
	return b
}

// rateAt finds the eviction rate measured at one set size.
func rateAt(points []revng.EvictionPoint, size int) float64 {
	for _, p := range points {
		if p.SetSize == size {
			return p.Rate
		}
	}
	return -1
}

// table3Platforms mirrors the TABLE III presets of the public facade (the
// suite cannot import package zenspec without a cycle); only the fields the
// experiment consumes are kept here.
var table3Platforms = []struct {
	name string
	sq   int
}{
	{"ryzen9-5900x", 48},
	{"epyc-7543", 48},
	{"ryzen5-5600g", 48},
	{"ryzen7-7735hs", 64},
}

func build() *harness.Registry {
	reg := harness.NewRegistry()

	reg.Register(harness.Experiment{
		ID:    "fig2",
		Title: "execution types and timing classes",
		Paper: "6 timing levels / 8 exec types for (40n,40a)x4; timing matches ground truth",
		Tags:  []string{"revng"},
		Run: func(ctx harness.Ctx) harness.Report {
			res := revng.Fig2(ctx.Config)
			var r harness.Report
			r.Detail = res.String()
			r.Add("timing_agreement", res.TimingAgree, 0.99, 1)
			r.Add("exec_types", float64(len(res.Rows)), 8, 8)
			return r
		},
	})

	reg.Register(harness.Experiment{
		ID:    "table1",
		Title: "state machine validation on random sequences",
		Paper: "the 5-counter state machine models >99.8% of random sequences",
		Tags:  []string{"revng"},
		Run: func(ctx harness.Ctx) harness.Report {
			sequences, length := 50, 64
			if ctx.Quick {
				sequences, length = 16, 48
			}
			res := revng.Table1(ctx.Config, sequences, length)
			var r harness.Report
			r.Detail = res.String()
			r.Add("match_rate", res.MatchRate, 0.995, 1)
			return r
		},
	})

	reg.Register(harness.Experiment{
		ID:    "table2",
		Title: "counter organization (IPA dependences)",
		Paper: "C0,C1,C2 select on store+load IPA; C3,C4 on the load IPA only",
		Tags:  []string{"revng"},
		Run: func(ctx harness.Ctx) harness.Report {
			res := revng.Table2(ctx.Config)
			want := map[string][2]bool{ // {store, load}
				"C0": {true, true}, "C1": {true, true}, "C2": {true, true},
				"C3": {false, true}, "C4": {false, true},
			}
			correct := 0
			for _, row := range res.Rows {
				w := want[row.Counter]
				if row.DependsOnStore == w[0] && row.DependsOnLoad == w[1] {
					correct++
				}
			}
			var r harness.Report
			r.Detail = res.String()
			r.Add("rows_correct", float64(correct), 5, 5)
			return r
		},
	})

	reg.Register(harness.Experiment{
		ID:    "fig4",
		Title: "hash characteristics of colliding IPA pairs",
		Paper: "colliding load-IPA pairs have XOR folding to zero at bit stride 12",
		Tags:  []string{"revng"},
		Run: func(ctx harness.Ctx) harness.Report {
			targets := 8
			if ctx.Quick {
				targets = 4
			}
			res := revng.Fig4(ctx.Config, targets)
			var r harness.Report
			r.Detail = res.String()
			r.Add("pairs_found", float64(res.Pairs), float64(targets), float64(targets))
			frac := 0.0
			if res.Pairs > 0 {
				frac = float64(res.StrideXORok) / float64(res.Pairs)
			}
			r.Add("stride12_xor_fraction", frac, 1, 1)
			return r
		},
	})

	reg.Register(harness.Experiment{
		ID:    "fig5",
		Title: "eviction rate vs eviction-set size",
		Paper: "PSFP step between 11 and 12; SSBP gradual, >50% @16 region, high @32",
		Tags:  []string{"revng"},
		Run: func(ctx harness.Ctx) harness.Report {
			sizes, trials := []int{4, 8, 10, 11, 12, 16, 24, 32, 48}, 20
			if ctx.Quick {
				sizes, trials = []int{8, 11, 12, 16, 32}, 8
			}
			res := revng.Fig5(ctx.Config, ctx.Arenas, sizes, trials)
			var r harness.Report
			r.Detail = res.String()
			r.Add("psfp_rate@11", rateAt(res.PSFP, 11), 0, 0.2)
			r.Add("psfp_rate@12", rateAt(res.PSFP, 12), 0.9, 1)
			r.Add("ssbp_rate@16", rateAt(res.SSBP, 16), 0.2, 0.95)
			r.Add("ssbp_rate@32", rateAt(res.SSBP, 32), 0.5, 1)
			return r
		},
	})

	reg.Register(harness.Experiment{
		ID:    "fig7",
		Title: "collision-finding attempts and distance dependence",
		Paper: "SSBP collisions found in ~2200 attempts (<=4096); PSFP only at equal store-load distance",
		Tags:  []string{"revng"},
		Run: func(ctx harness.Ctx) harness.Report {
			ssbpTrials, psfpTrials := 20, 4
			if ctx.Quick {
				ssbpTrials, psfpTrials = 8, 3
			}
			res := revng.Fig7(ctx.Config, ssbpTrials, psfpTrials)
			var r harness.Report
			r.Detail = res.String()
			r.Add("ssbp_found_fraction", float64(len(res.SSBPAttempts))/float64(ssbpTrials), 0.75, 1)
			r.Add("ssbp_mean_attempts", res.SSBPMean, 300, 4096)
			r.Add("psfp_same_distance_found", float64(res.PSFPSameDistanceFound), float64(psfpTrials), float64(psfpTrials))
			r.Add("psfp_diff_distance_found", float64(res.PSFPDiffDistanceFound), 0, 0)
			return r
		},
	})

	reg.Register(harness.Experiment{
		ID:    "table3",
		Title: "platform matrix (one predictor design)",
		Paper: "all four test machines share the PSFP/SSBP design",
		Tags:  []string{"facade"},
		Run: func(ctx harness.Ctx) harness.Report {
			sequences, length := 10, 48
			if ctx.Quick {
				sequences, length = 6, 32
			}
			var r harness.Report
			var sb strings.Builder
			min := 1.0
			for _, p := range table3Platforms {
				cfg := ctx.Config
				cfg.Pipeline.SQSize = p.sq
				res := revng.Table1(cfg, sequences, length)
				fmt.Fprintf(&sb, "%-14s SQ=%d  state-machine match %.2f%%\n", p.name, p.sq, 100*res.MatchRate)
				if res.MatchRate < min {
					min = res.MatchRate
				}
			}
			r.Detail = sb.String()
			r.Add("min_match_rate", min, 0.99, 1)
			return r
		},
	})

	reg.Register(harness.Experiment{
		ID:    "isolation",
		Title: "predictor isolation across security domains (Vulnerability 1)",
		Paper: "PSFP flushed on switch; SSBP survives across user/VM/kernel",
		Tags:  []string{"revng"},
		Run: func(ctx harness.Ctx) harness.Report {
			res := revng.Isolation(ctx.Config)
			var r harness.Report
			r.Detail = res.String()
			r.Add("matrix_rows", float64(len(res.Rows)), 24, 24)
			r.AddBool("vulnerability1", res.Vulnerability1(), true)
			return r
		},
	})

	reg.Register(harness.Experiment{
		ID:    "smt",
		Title: "SMT vs single-thread predictor resources",
		Paper: "eviction threshold identical in both modes: resources are duplicated",
		Tags:  []string{"revng"},
		Run: func(ctx harness.Ctx) harness.Report {
			res := revng.SMTMode(ctx.Config)
			var r harness.Report
			r.Detail = res.String()
			r.Add("smt_threshold", float64(res.SMTThreshold), 12, 12)
			r.Add("single_threshold", float64(res.SingleThreshold), 12, 12)
			r.AddBool("duplicated", res.Duplicated(), true)
			return r
		},
	})

	reg.Register(harness.Experiment{
		ID:    "transient-exec",
		Title: "transient execution windows of both mispredictions (Fig 8)",
		Paper: "SSBP misprediction exposes the stale value; PSFP misprediction the forwarded one",
		Tags:  []string{"pipeline"},
		Run: func(ctx harness.Ctx) harness.Report {
			res := revng.TransientExec(ctx.Config)
			var r harness.Report
			r.Detail = res.String()
			r.AddBool("ssbp_leading_g", res.SSBPLeadingG, true)
			r.AddBool("ssbp_arch_correct", res.SSBPArchCorrect, true)
			r.AddBool("ssbp_stale_cached", res.SSBPStaleCached, true)
			r.AddBool("ssbp_arch_cached", res.SSBPArchCached, true)
			r.AddBool("psfp_type_d", res.PSFPTypeD, true)
			r.AddBool("psfp_forward_cached", res.PSFPForwardCached, true)
			return r
		},
	})

	reg.Register(harness.Experiment{
		ID:    "transient-update",
		Title: "predictor updates survive transient-window squashes (Fig 9)",
		Paper: "branch, faulty-load and memory-speculation windows all train the predictors",
		Tags:  []string{"pipeline"},
		Run: func(ctx harness.Ctx) harness.Report {
			res := revng.TransientUpdate(ctx.Config)
			var r harness.Report
			r.Detail = res.String()
			r.AddBool("branch_window_squashed", res.BranchWindowSquashed, true)
			r.AddBool("branch_window_trained", res.BranchWindowTrained, true)
			r.AddBool("fault_window_cached", res.FaultWindowCached, true)
			r.AddBool("mem_window_transient", res.MemWindowTransient, true)
			return r
		},
	})

	reg.Register(harness.Experiment{
		ID:    "infer",
		Title: "design constants recovered from timing alone",
		Paper: "C0=4, C3=15, C4 limit 3, PSF window 6 aliasing runs, PSFP capacity 12",
		Tags:  []string{"revng"},
		Run: func(ctx harness.Ctx) harness.Report {
			res := revng.Infer(ctx.Config)
			var r harness.Report
			r.Add("c0_init", float64(res.C0Init), 4, 4)
			r.Add("c3_saturated", float64(res.C3Saturated), 15, 15)
			r.Add("c4_limit", float64(res.RollbacksToSaturate), 3, 3)
			r.Add("psf_window", float64(res.AliasRunsToPSF), 6, 6)
			r.Add("psfp_capacity", float64(res.PSFPEvictionThreshold), 12, 12)
			return r
		},
	})

	reg.Register(harness.Experiment{
		ID:    "addrleak",
		Title: "physical-address relation leak through the selection hash",
		Paper: "colliding offsets reveal Fold12(Fi) XOR Fold12(Fj) for every page pair",
		Tags:  []string{"revng"},
		Run: func(ctx harness.Ctx) harness.Report {
			pages := 5
			if ctx.Quick {
				pages = 4
			}
			res := revng.AddrLeak(ctx.Config, pages)
			var r harness.Report
			r.Detail = res.String()
			r.Add("page_pairs", float64(res.Pages), 3, float64(pages*(pages-1)/2))
			frac := 0.0
			if res.Pages > 0 {
				frac = float64(res.Recovered) / float64(res.Pages)
			}
			r.Add("recovered_fraction", frac, 1, 1)
			return r
		},
	})

	reg.Register(harness.Experiment{
		ID:    "table4",
		Title: "MDU characterization (AMD vs Intel vs ARM)",
		Paper: "AMD: 6+2-bit counters selected by a 12-bit hash of the whole load IPA",
		Tags:  []string{"facade"},
		Run: func(ctx harness.Ctx) harness.Report {
			rows := predict.CharacterizationTable()
			var r harness.Report
			var sb strings.Builder
			amdOK := false
			for _, row := range rows {
				fmt.Fprintf(&sb, "%-14s state machine: %-24s selection: %s\n", row.Design, row.StateMachineBits, row.Selection)
				if strings.Contains(row.Design, "amd") && strings.Contains(row.Selection, "12-bit hash") {
					amdOK = true
				}
			}
			r.Detail = sb.String()
			r.Add("designs", float64(len(rows)), 3, 3)
			r.AddBool("amd_12bit_hash_selection", amdOK, true)
			return r
		},
	})

	reg.Register(harness.Experiment{
		ID:    "spectre-stl",
		Title: "out-of-place Spectre-STL leak",
		Paper: "99.95% accuracy at 416 B/s; one victim call per byte",
		Tags:  []string{"attack"},
		Run: func(ctx harness.Ctx) harness.Report {
			n := 256
			if ctx.Quick {
				n = 64
			}
			secret := secretBytes(ctx.Config.Seed, n)
			res := attack.SpectreSTL(ctx.Config, secret, attack.STLOptions{})
			var r harness.Report
			r.Detail = res.String()
			r.Add("accuracy", res.Accuracy, 0.95, 1)
			r.Add("bytes_per_second", res.BytesPerSecond, 100, 1e9)
			return r
		},
	})

	reg.Register(harness.Experiment{
		ID:    "spectre-ctl",
		Title: "Spectre-CTL cross-process leak",
		Paper: "99.97% accuracy at 384 B/s without shared memory",
		Tags:  []string{"attack"},
		Run: func(ctx harness.Ctx) harness.Report {
			n := 256
			if ctx.Quick {
				n = 32
			}
			secret := secretBytes(ctx.Config.Seed, n)
			res := attack.SpectreCTL(ctx.Config, secret, attack.CTLOptions{})
			var r harness.Report
			r.Detail = res.String()
			r.Add("accuracy", res.Accuracy, 0.95, 1)
			r.Add("bytes_per_second", res.BytesPerSecond, 100, 1e9)
			return r
		},
	})

	reg.Register(harness.Experiment{
		ID:    "spectre-ctl-browser",
		Title: "Spectre-CTL under a coarse jittered browser timer",
		Paper: "81.1% accuracy at ~170 B/s with a ~10 ns quantized timer",
		Tags:  []string{"attack"},
		Run: func(ctx harness.Ctx) harness.Report {
			n := 256
			if ctx.Quick {
				n = 32
			}
			secret := secretBytes(ctx.Config.Seed, n)
			res := attack.SpectreCTLBrowser(ctx.Config, secret)
			var r harness.Report
			r.Detail = res.String()
			r.Add("accuracy", res.Accuracy, 0.5, 1)
			return r
		},
	})

	reg.Register(harness.Experiment{
		ID:    "sandbox-escape",
		Title: "leak from inside the browser sandbox model",
		Paper: "the attack works with masked memory, JIT-only code, no flush, coarse timer",
		Tags:  []string{"attack"},
		Run: func(ctx harness.Ctx) harness.Report {
			n := 4
			if ctx.Quick {
				n = 2
			}
			secret := secretBytes(ctx.Config.Seed+1, n)
			var r harness.Report
			res, err := sandbox.Escape(ctx.Config, secret)
			if err != nil {
				r.Detail = "sandbox escape error: " + err.Error()
				r.Add("correct_fraction", 0, 0.5, 1)
				return r
			}
			r.Detail = res.String()
			r.Add("correct_fraction", float64(res.Correct)/float64(n), 0.5, 1)
			return r
		},
	})

	// fig11's sample grid is embarrassingly parallel — every (model, sample)
	// cell is a fresh machine seeded only from its indices — so it carries a
	// RangeSpec: the service can split the grid across shards (and machines),
	// and the unsharded run funnels through the same Run+Merge pair. Only the
	// SVM at the end is serial, and it lives in Merge.
	fig11Opts := func(ctx harness.Ctx) attack.FingerprintOptions {
		train, test := 10, 5
		if ctx.Quick {
			train, test = 6, 3
		}
		return attack.FingerprintOptions{
			ScanRange: 128, Rounds: 14,
			TrainSamples: train, TestSamples: test, Seed: ctx.Config.Seed,
		}
	}
	reg.Register(harness.Experiment{
		ID:    "fig11",
		Title: "SSBP fingerprinting of CNN models",
		Paper: "SVM over C3 frequency vectors separates 6 models (>95.5% on hardware)",
		Tags:  []string{"attack"},
		Range: &harness.RangeSpec{
			Trials: func(ctx harness.Ctx) int {
				return attack.FingerprintCells(fig11Opts(ctx))
			},
			Run: func(ctx harness.Ctx, lo, hi int) ([]byte, error) {
				return json.Marshal(attack.FingerprintRange(ctx.Config, fig11Opts(ctx), lo, hi))
			},
			Merge: func(ctx harness.Ctx, frags []harness.Fragment) harness.Report {
				var samples []attack.FingerprintSample
				for _, f := range frags {
					var part []attack.FingerprintSample
					if err := json.Unmarshal(f.Data, &part); err != nil {
						return harness.Report{
							Status: harness.StatusFailed,
							Error:  fmt.Sprintf("fingerprint fragment [%d, %d): %v", f.Lo, f.Hi, err),
						}
					}
					samples = append(samples, part...)
				}
				var r harness.Report
				res, err := attack.FingerprintAssemble(fig11Opts(ctx), samples)
				if err != nil {
					r.Detail = "fingerprint error: " + err.Error()
					r.Add("svm_accuracy", 0, 0.7, 1)
					return r
				}
				r.Detail = res.String()
				r.Add("svm_accuracy", res.Accuracy, 0.7, 1)
				return r
			},
		},
	})

	reg.Register(harness.Experiment{
		ID:    "fig12",
		Title: "SSBD overhead on SPECrate-like kernels",
		Paper: ">20% on perlbench and exchange2, ~0% on x264",
		Tags:  []string{"workload", "defense"},
		Run: func(ctx harness.Ctx) harness.Report {
			res := workload.SSBDOverhead(ctx.Config, workload.SpecKernels())
			var r harness.Report
			r.Detail = res.String()
			byName := map[string]float64{}
			for _, row := range res.Rows {
				byName[row.Name] = row.OverheadFrac
			}
			r.Add("overhead_perlbench", byName["perlbench"], 0.15, 1)
			r.Add("overhead_exchange2", byName["exchange2"], 0.15, 1)
			r.Add("overhead_x264", byName["x264"], 0, 0.05)
			return r
		},
	})

	reg.Register(harness.Experiment{
		ID:    "ssbd-blockstate",
		Title: "SSBD pins entries to the block state; PSFD does not stop the attacks",
		Paper: "under SSBD every non-aliasing run stalls (E) and aliasing runs read A; PSFD leaves STL intact",
		Tags:  []string{"defense"},
		Run: func(ctx harness.Ctx) harness.Report {
			var r harness.Report
			scfg := ctx.Config
			scfg.SSBD = true
			l := revng.NewLab(scfg)
			s := l.PlaceStld()
			countType := func(obs []revng.Observation, want predict.ExecType) float64 {
				hit := 0
				for _, o := range obs {
					if o.TrueType == want {
						hit++
					}
				}
				return float64(hit) / float64(len(obs))
			}
			nonAlias := s.Phi(revng.Seq(12))
			alias := s.Phi(revng.Seq(-6))
			r.Detail = fmt.Sprintf("SSBD: phi(12n) types %s; phi(6a) types %s",
				revng.TypesString(revng.Types(nonAlias)), revng.TypesString(revng.Types(alias)))
			r.Add("ssbd_nonalias_E_fraction", countType(nonAlias, predict.TypeE), 1, 1)
			r.Add("ssbd_alias_A_fraction", countType(alias, predict.TypeA), 1, 1)

			pcfg := ctx.Config
			pcfg.PSFD = true
			stl := attack.SpectreSTL(pcfg, secretBytes(ctx.Config.Seed, 8), attack.STLOptions{})
			r.Add("psfd_stl_accuracy", stl.Accuracy, 0.9, 1)
			return r
		},
	})

	reg.Register(harness.Experiment{
		ID:    "defenses",
		Title: "mitigation matrix (SSBD, PSFD, flush, salt rotation, secure timer)",
		Paper: "SSBD and the VI-B sketches stop their attack class; PSFD is ineffective",
		Tags:  []string{"defense"},
		Run: func(ctx harness.Ctx) harness.Report {
			stlBytes, ctlBytes := 16, 8
			if ctx.Quick {
				stlBytes, ctlBytes = 8, 4
			}
			stlSecret := secretBytes(ctx.Config.Seed, stlBytes)
			ctlSecret := secretBytes(ctx.Config.Seed, ctlBytes)
			with := func(mutate func(*kernel.Config)) kernel.Config {
				cfg := ctx.Config
				mutate(&cfg)
				return cfg
			}
			rows := []struct {
				name   string
				lo, hi float64
				run    func() float64
			}{
				{"ssbd_stl_accuracy", 0, 0.2, func() float64 {
					return attack.SpectreSTL(with(func(c *kernel.Config) { c.SSBD = true }), stlSecret, attack.STLOptions{}).Accuracy
				}},
				{"psfd_stl_accuracy", 0.9, 1, func() float64 {
					return attack.SpectreSTL(with(func(c *kernel.Config) { c.PSFD = true }), stlSecret, attack.STLOptions{}).Accuracy
				}},
				{"ssbd_ctl_accuracy", 0, 0.2, func() float64 {
					return attack.SpectreCTL(with(func(c *kernel.Config) { c.SSBD = true }), ctlSecret, attack.CTLOptions{Sweeps: 1}).Accuracy
				}},
				{"flush_ssbp_ctl_accuracy", 0, 0.2, func() float64 {
					return attack.SpectreCTL(with(func(c *kernel.Config) { c.FlushSSBPOnSwitch = true }), ctlSecret, attack.CTLOptions{Sweeps: 1}).Accuracy
				}},
				{"rotate_salt_ctl_accuracy", 0, 0.2, func() float64 {
					return attack.SpectreCTL(with(func(c *kernel.Config) { c.RotateSalt = true }), ctlSecret,
						attack.CTLOptions{Sweeps: 1, VictimDomain: kernel.DomainKernel}).Accuracy
				}},
				{"secure_timer_stl_accuracy", 0, 0.3, func() float64 {
					return attack.SpectreSTL(with(func(c *kernel.Config) { c.TimerQuantum = 4096 }), stlSecret, attack.STLOptions{}).Accuracy
				}},
			}
			// Each row boots its own machine, so the rows run in parallel.
			// The cheap SSBD CTL row goes first, since the pool runs its
			// first trial alone to time it, and the rest longest first. A
			// serial run keeps the table's order, which a trace records.
			order := []int{0, 1, 2, 3, 4, 5}
			if ctx.Workers() > 1 {
				order = []int{2, 0, 5, 3, 4, 1}
			}
			acc := harness.Trials(ctx.Workers(), len(order), func(i int) float64 { return rows[order[i]].run() })
			byRow := make([]float64, len(rows))
			for i, row := range order {
				byRow[row] = acc[i]
			}
			var r harness.Report
			for i, row := range rows {
				r.Add(row.name, byRow[i], row.lo, row.hi)
			}
			return r
		},
	})

	reg.Register(harness.Experiment{
		ID:    "stl-inplace",
		Title: "in-place vs out-of-place Spectre-STL training cost",
		Paper: "in-place training needs many victim runs per byte; out-of-place one",
		Tags:  []string{"attack"},
		Run: func(ctx harness.Ctx) harness.Report {
			secret := secretBytes(ctx.Config.Seed, 8)
			inPlace := attack.SpectreSTLInPlace(ctx.Config, secret)
			outOfPlace := attack.SpectreSTL(ctx.Config, secret, attack.STLOptions{})
			var r harness.Report
			r.Detail = inPlace.String() + "\n" + outOfPlace.String()
			r.Add("inplace_accuracy", inPlace.Accuracy, 0.9, 1)
			r.Add("outofplace_accuracy", outOfPlace.Accuracy, 0.9, 1)
			ratio := 0.0
			if outOfPlace.VictimCalls > 0 {
				ratio = float64(inPlace.VictimCalls) / float64(outOfPlace.VictimCalls)
			}
			r.Add("victim_call_ratio", ratio, 1.5, 1e9)
			return r
		},
	})

	reg.Register(harness.Experiment{
		ID:    "ablations",
		Title: "design ablation: PSFP capacity vs eviction threshold",
		Paper: "the Fig 5 threshold tracks the modeled capacity (12 at size 12)",
		Tags:  []string{"revng"},
		Run: func(ctx harness.Ctx) harness.Report {
			sizes := []int{8, 12, 16}
			if ctx.Quick {
				sizes = []int{12}
			}
			points := revng.PSFPSizeAblation(ctx.Config, sizes)
			var r harness.Report
			r.Detail = revng.AblationString("psfp-size", points)
			monotonic := true
			for i, p := range points {
				if p.Threshold <= 0 {
					monotonic = false
				}
				if i > 0 && p.Threshold < points[i-1].Threshold {
					monotonic = false
				}
				if p.Value == 12 {
					r.Add("threshold@size12", float64(p.Threshold), 12, 12)
				}
			}
			r.AddBool("thresholds_track_capacity", monotonic, true)
			return r
		},
	})

	// --- Fault-injection family: the headline results replayed on a machine
	// that misbehaves. Each row resolves the run's fault plan (the -faults
	// plan when one is active, else the documented default intensity) and
	// asserts the paper bands still hold at that ceiling — the robustness
	// claim EXPERIMENTS.md's noise-ceiling table documents.

	faultCtx := func(ctx harness.Ctx) harness.Ctx {
		if !ctx.Config.Faults.Active() {
			ctx.Config.Faults = fault.Default()
		}
		return ctx
	}

	reg.Register(harness.Experiment{
		ID:    "fault-stl",
		Title: "Spectre-STL at the documented noise ceiling",
		Paper: "majority-vote calibration recovers the full secret under the default fault plan",
		Tags:  []string{"attack", "fault"},
		Run: func(ctx harness.Ctx) harness.Report {
			ctx = faultCtx(ctx)
			n := 16
			if ctx.Quick {
				n = 8
			}
			secret := secretBytes(ctx.Config.Seed, n)
			res := attack.SpectreSTL(ctx.Config, secret, attack.STLOptions{Votes: 3, Retries: 3})
			var r harness.Report
			r.Detail = ctx.Config.Faults.String() + "\n" + res.String()
			r.Add("accuracy", res.Accuracy, 1, 1)
			return r
		},
	})

	reg.Register(harness.Experiment{
		ID:    "fault-ctl",
		Title: "Spectre-CTL at the documented noise ceiling",
		Paper: "the SSBP covert channel survives the default fault plan with per-byte voting",
		Tags:  []string{"attack", "fault"},
		Run: func(ctx harness.Ctx) harness.Report {
			ctx = faultCtx(ctx)
			n := 8
			if ctx.Quick {
				n = 4
			}
			secret := secretBytes(ctx.Config.Seed, n)
			res := attack.SpectreCTL(ctx.Config, secret, attack.CTLOptions{Votes: 3, Sweeps: 3})
			var r harness.Report
			r.Detail = ctx.Config.Faults.String() + "\n" + res.String()
			r.Add("accuracy", res.Accuracy, 1, 1)
			return r
		},
	})

	reg.Register(harness.Experiment{
		ID:    "fault-fig4",
		Title: "hash-collision mining under predictor pollution",
		Paper: "mined pairs keep the stride-12 XOR property despite spurious trainings",
		Tags:  []string{"revng", "fault"},
		Run: func(ctx harness.Ctx) harness.Report {
			ctx = faultCtx(ctx)
			targets := 4
			if ctx.Quick {
				targets = 3
			}
			res := revng.Fig4(ctx.Config, targets)
			var r harness.Report
			r.Detail = ctx.Config.Faults.String() + "\n" + res.String()
			r.Add("pairs_found", float64(res.Pairs), float64(targets), float64(targets))
			frac := 0.0
			if res.Pairs > 0 {
				frac = float64(res.StrideXORok) / float64(res.Pairs)
			}
			r.Add("stride12_xor_fraction", frac, 1, 1)
			return r
		},
	})

	reg.Register(harness.Experiment{
		ID:    "fault-fig5",
		Title: "eviction-rate curves under injected noise",
		Paper: "the PSFP capacity step and the gradual SSBP curve survive the fault plan",
		Tags:  []string{"revng", "fault"},
		Run: func(ctx harness.Ctx) harness.Report {
			ctx = faultCtx(ctx)
			// More trials per cell than the clean row: the per-cell verdicts
			// are sound under faults (min-of-3 reads), but the rates
			// themselves wobble more, so the estimate needs a bigger sample.
			sizes, trials := []int{8, 11, 12, 16, 32}, 16
			if ctx.Quick {
				sizes, trials = []int{11, 12, 16, 32}, 10
			}
			res := revng.Fig5(ctx.Config, ctx.Arenas, sizes, trials)
			var r harness.Report
			r.Detail = ctx.Config.Faults.String() + "\n" + res.String()
			// Injected PSFP evictions raise the below-capacity rate
			// (a faulted eviction is indistinguishable from a real one), so
			// the sub-threshold band is looser than the clean row's.
			r.Add("psfp_rate@11", rateAt(res.PSFP, 11), 0, 0.55)
			r.Add("psfp_rate@12", rateAt(res.PSFP, 12), 0.85, 1)
			r.Add("ssbp_rate@16", rateAt(res.SSBP, 16), 0.15, 0.95)
			r.Add("ssbp_rate@32", rateAt(res.SSBP, 32), 0.5, 1)
			return r
		},
	})

	reg.Register(harness.Experiment{
		ID:    "fault-fig7",
		Title: "collision finding under injected noise",
		Paper: "SSBP collisions are still found within the 4096-tag budget under faults",
		Tags:  []string{"revng", "fault"},
		Run: func(ctx harness.Ctx) harness.Report {
			ctx = faultCtx(ctx)
			ssbpTrials, psfpTrials := 8, 3
			if ctx.Quick {
				ssbpTrials, psfpTrials = 6, 2
			}
			res := revng.Fig7(ctx.Config, ssbpTrials, psfpTrials)
			var r harness.Report
			r.Detail = ctx.Config.Faults.String() + "\n" + res.String()
			r.Add("ssbp_found_fraction", float64(len(res.SSBPAttempts))/float64(ssbpTrials), 0.75, 1)
			r.Add("ssbp_mean_attempts", res.SSBPMean, 300, 4096)
			r.Add("psfp_same_distance_found", float64(res.PSFPSameDistanceFound), float64(psfpTrials), float64(psfpTrials))
			r.Add("psfp_diff_distance_found", float64(res.PSFPDiffDistanceFound), 0, 0)
			return r
		},
	})

	// fault-harness exercises ResilientTrials itself, so its RangeSpec rides
	// directly on ResilientTrialRange: each shard carries its range's values
	// and TrialStats, and Merge folds the stats in range order — the same
	// fold one loop over [0, n) performs.
	type faultHarnessFrag struct {
		Vals  []int64            `json:"vals"`
		Stats harness.TrialStats `json:"stats"`
	}
	faultHarnessPol := harness.TrialPolicy{Retries: 3}
	reg.Register(harness.Experiment{
		ID:    "fault-harness",
		Title: "resilient trial loop under injected trial faults",
		Paper: "retries, panic isolation and deadlines turn injected failures into a degraded-but-complete report",
		Tags:  []string{"harness", "fault"},
		Range: &harness.RangeSpec{
			Trials: func(ctx harness.Ctx) int {
				if ctx.Quick {
					return 32
				}
				return 64
			},
			Run: func(ctx harness.Ctx, lo, hi int) ([]byte, error) {
				ctx = faultCtx(ctx)
				vals, stats := harness.ResilientTrialRange(ctx, "fault-harness", faultHarnessPol, lo, hi,
					func(_ harness.Ctx, trial, attempt int, seed int64) (int64, error) { return seed, nil })
				return json.Marshal(faultHarnessFrag{Vals: vals, Stats: stats})
			},
			Merge: func(ctx harness.Ctx, frags []harness.Fragment) harness.Report {
				ctx = faultCtx(ctx)
				const id = "fault-harness"
				var vals []int64
				var stats harness.TrialStats
				for _, f := range frags {
					var part faultHarnessFrag
					if err := json.Unmarshal(f.Data, &part); err != nil {
						return harness.Report{
							Status: harness.StatusFailed,
							Error:  fmt.Sprintf("fault-harness fragment [%d, %d): %v", f.Lo, f.Hi, err),
						}
					}
					vals = append(vals, part.Vals...)
					stats.Merge(part.Stats)
				}
				n := len(vals)
				plan := ctx.Config.Faults
				// The expected value of each trial is fully determined by the
				// plan: the first attempt the plan does not sabotage succeeds
				// and returns its derived seed.
				correct := 0
				for trial, v := range vals {
					for attempt := 0; attempt <= faultHarnessPol.Retries; attempt++ {
						if plan.TrialFaultAt(id, trial, attempt) == fault.TrialNone {
							if v == harness.AttemptSeed(ctx.Config.Seed, id, trial, attempt) {
								correct++
							}
							break
						}
					}
				}
				var r harness.Report
				r.Detail = fmt.Sprintf("%s\ntrials %d attempts %d retried %d recovered %d overruns %d injected %d failed %d",
					plan.String(), stats.Trials, stats.Attempts, stats.Retried,
					stats.Recovered, stats.Overruns, stats.Injected, stats.Failed)
				r.Add("values_correct", float64(correct), float64(n), float64(n))
				r.Add("trials_failed", float64(stats.Failed), 0, 0)
				r.Add("faults_injected", float64(stats.Injected), 1, float64(4*n))
				r.RecordTrials(stats)
				return r
			},
		},
	})

	reg.Register(harness.Experiment{
		ID:    "speccheck-scale",
		Title: "incremental speccheck on a generated 100k-instruction program",
		Paper: "the summary cache reproduces the whole-program scan exactly; a warm re-scan explores zero states and a one-instruction edit recomputes only its dependency closure",
		Tags:  []string{"speccheck", "static"},
		Run: func(ctx harness.Ctx) harness.Report {
			// Wall clocks are perfbench's speccheck.cold_ms and warm_ms; here
			// only deterministic counters are reported so the report is
			// byte-identical across runs and parallelism.
			insts := 100_000
			if ctx.Quick {
				insts = 20_000
			}
			code := speccheck.GenProgram(ctx.Config.Seed, insts)
			opts := speccheck.Options{}
			want := speccheck.AnalyzeAll(code, opts)

			c := speccheck.NewCache()
			cold := c.Analyze(code, opts)
			afterCold := c.Stats()
			warm := c.Analyze(code, opts)
			afterWarm := c.Stats()

			// NOP out a mid-program instruction: only sources whose closure
			// covers the slot may recompute.
			edited := append([]byte(nil), code...)
			isa.Inst{Op: isa.NOP}.Encode(edited[(insts/2)*isa.InstBytes:])
			edit := c.Analyze(edited, opts)
			afterEdit := c.Stats()
			editWant := speccheck.AnalyzeAll(edited, opts)

			recomputed := afterEdit.SourceMisses - afterWarm.SourceMisses
			var r harness.Report
			r.Detail = fmt.Sprintf("insts %d sources %d findings %d states %d edit recomputed %d source(s)",
				insts, afterCold.Sources, len(want.Findings), afterCold.StatesExplored, recomputed)
			r.AddBool("cold_identical", reflect.DeepEqual(cold, want), true)
			r.AddBool("warm_identical", reflect.DeepEqual(warm, want), true)
			r.AddBool("edit_identical", reflect.DeepEqual(edit, editWant), true)
			r.Add("findings", float64(len(want.Findings)), 1, float64(insts))
			r.Add("warm_program_hits", float64(afterWarm.ProgramHits-afterCold.ProgramHits), 1, 1)
			r.Add("warm_states_explored", float64(afterWarm.StatesExplored-afterCold.StatesExplored), 0, 0)
			r.Add("edit_recomputed_fraction", float64(recomputed)/float64(afterCold.Sources), 0, 0.25)
			return r
		},
	})

	return reg
}
