// Package ml provides a small pure-Go multi-class linear SVM (one-vs-rest,
// Pegasos-style stochastic subgradient training), standing in for the
// paper's sklearn classifier in the Fig 11 fingerprinting experiment.
package ml

import (
	"fmt"
	"math/rand"
)

// SVM is a trained one-vs-rest linear classifier.
type SVM struct {
	weights [][]float64 // one weight vector per class
	bias    []float64
	classes int
}

// Options configures training.
type Options struct {
	Epochs int     // passes over the data (default 60)
	Lambda float64 // regularization (default 0.01)
	Seed   int64
}

// Train fits a one-vs-rest linear SVM on feature vectors x with labels
// y ∈ [0, classes).
func Train(x [][]float64, y []int, classes int, opts Options) (*SVM, error) {
	if len(x) == 0 || len(x) != len(y) {
		return nil, fmt.Errorf("ml: bad training set: %d samples, %d labels", len(x), len(y))
	}
	dim := len(x[0])
	for i, v := range x {
		if len(v) != dim {
			return nil, fmt.Errorf("ml: sample %d has dimension %d, want %d", i, len(v), dim)
		}
	}
	for i, c := range y {
		if c < 0 || c >= classes {
			return nil, fmt.Errorf("ml: label %d out of range at sample %d", c, i)
		}
	}
	if opts.Epochs == 0 {
		opts.Epochs = 60
	}
	if opts.Lambda == 0 {
		opts.Lambda = 0.01
	}
	m := &SVM{
		weights: make([][]float64, classes),
		bias:    make([]float64, classes),
		classes: classes,
	}
	rng := rand.New(rand.NewSource(opts.Seed + 1))
	order := rng.Perm(len(x))
	for c := 0; c < classes; c++ {
		w := make([]float64, dim)
		var b float64
		t := 1
		for epoch := 0; epoch < opts.Epochs; epoch++ {
			rng.Shuffle(len(order), func(i, j int) { order[i], order[j] = order[j], order[i] })
			for _, i := range order {
				label := -1.0
				if y[i] == c {
					label = 1.0
				}
				eta := 1.0 / (opts.Lambda * float64(t))
				t++
				margin := label * (dot(w, x[i]) + b)
				for d := range w {
					w[d] *= 1 - eta*opts.Lambda
				}
				if margin < 1 {
					for d := range w {
						w[d] += eta * label * x[i][d]
					}
					b += eta * label
				}
			}
		}
		m.weights[c] = w
		m.bias[c] = b
	}
	return m, nil
}

func dot(a, b []float64) float64 {
	var s float64
	for i := range a {
		s += a[i] * b[i]
	}
	return s
}

// Predict returns the most confident class for x.
func (m *SVM) Predict(x []float64) int {
	best, bestScore := 0, dot(m.weights[0], x)+m.bias[0]
	for c := 1; c < m.classes; c++ {
		if s := dot(m.weights[c], x) + m.bias[c]; s > bestScore {
			best, bestScore = c, s
		}
	}
	return best
}

// Accuracy scores the classifier on a labeled set.
func (m *SVM) Accuracy(x [][]float64, y []int) float64 {
	if len(x) == 0 {
		return 0
	}
	correct := 0
	for i := range x {
		if m.Predict(x[i]) == y[i] {
			correct++
		}
	}
	return float64(correct) / float64(len(x))
}
