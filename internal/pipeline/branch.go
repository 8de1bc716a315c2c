package pipeline

// branchPredictor is a small table of 2-bit saturating counters indexed by
// the branch's virtual address. It is just rich enough to be mistrained the
// way Spectre-V1 style gadgets require (Fig 9's branch-misprediction
// transient window).
type branchPredictor struct {
	counters [1024]uint8
}

func newBranchPredictor() *branchPredictor { return &branchPredictor{} }

func (b *branchPredictor) idx(pc uint64) int { return int((pc >> 3) % 1024) }

// predict returns the predicted direction for the conditional branch at pc.
func (b *branchPredictor) predict(pc uint64) bool { return b.counters[b.idx(pc)] >= 2 }

// update trains the counter with the actual direction.
func (b *branchPredictor) update(pc uint64, taken bool) {
	i := b.idx(pc)
	if taken {
		if b.counters[i] < 3 {
			b.counters[i]++
		}
	} else if b.counters[i] > 0 {
		b.counters[i]--
	}
}
