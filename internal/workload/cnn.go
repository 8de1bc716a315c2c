// Package workload provides the synthetic victim workloads the paper's
// evaluation needs: CNN inference traces for the Fig 11 fingerprinting
// experiment and SPECrate-like kernels for the Fig 12 SSBD overhead study.
//
// The CNN models are modeled at the level that matters to SSBP: a model is a
// set of store-load sites (layers' inner loops), each with a characteristic
// rate of read-after-write aliasing. Executing a model imprints a
// characteristic distribution of C3 counter values across SSBP entries —
// the fingerprint the attacker scans.
package workload

import "math/rand"

// CNNModel describes one network's memory-access signature.
type CNNModel struct {
	Name string
	// SiteAliasing is the probability of an aliasing store-load pair at
	// each site; its length is the number of active sites (hot loops).
	SiteAliasing []float64
	// SiteRuns is how many times each site executes per scheduling quantum
	// (cycled if shorter than SiteAliasing). Together with the aliasing
	// probability it determines where the site's residual C3 value lands:
	// a retrain sets C3 to 15 and every following execution drains one step.
	SiteRuns []int
}

// rep builds a site-aliasing vector by cycling through a pattern.
func rep(n int, pattern ...float64) []float64 {
	out := make([]float64, n)
	for i := range out {
		out[i] = pattern[i%len(pattern)]
	}
	return out
}

// CNNModels returns the six networks fingerprinted in Fig 11. The aliasing
// signatures reflect each architecture's flavor: VGG's uniform deep conv
// stacks, GoogLeNet's heterogeneous inception branches, ResNet's
// skip-connection writes that feed immediately into the next block,
// SE-ResNet's extra squeeze-excitation reductions, MobileNet's depthwise
// separable pairs, and AlexNet's few large layers.
func CNNModels() []CNNModel {
	return []CNNModel{
		{Name: "vgg16", SiteAliasing: rep(16, 0.6), SiteRuns: []int{8}},
		{Name: "googlenet", SiteAliasing: rep(20, 0.3, 0.9, 0.5, 0.7), SiteRuns: []int{4, 13, 7, 10}},
		{Name: "resnet18", SiteAliasing: rep(14, 0.9, 0.35), SiteRuns: []int{6, 11}},
		{Name: "sersnet18", SiteAliasing: rep(17, 0.9, 0.35, 0.95), SiteRuns: []int{6, 11, 3}},
		{Name: "mobilenet", SiteAliasing: rep(18, 0.2, 0.35), SiteRuns: []int{13, 12}},
		{Name: "alexnet", SiteAliasing: rep(8, 0.75), SiteRuns: []int{15, 5}},
	}
}

// AliasingSchedule draws the per-run aliasing decisions for one scheduling
// quantum of the model: element [site][run] says whether that execution of
// the site's store-load pair aliases.
func (m CNNModel) AliasingSchedule(r *rand.Rand) [][]bool {
	out := make([][]bool, len(m.SiteAliasing))
	for s, p := range m.SiteAliasing {
		runs := make([]bool, m.SiteRuns[s%len(m.SiteRuns)])
		for i := range runs {
			runs[i] = r.Float64() < p
		}
		out[s] = runs
	}
	return out
}
