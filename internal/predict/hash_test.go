package predict

import (
	"math/rand"
	"testing"
	"testing/quick"
)

// CollidingOffset returns the 12-bit page offset that makes an address in the
// physical frame pfn hash to the target value — the constructive proof from
// Section IV-B1 that an SSBP collision exists in every executable page:
// h_i = O_i ^ F_i ^ F_{i+12} ^ F_{i+24}, so O_i = h_i ^ (frame contribution).
func CollidingOffset(pfn uint64, target uint16) uint16 {
	frameBits := Hash48(pfn << 12)
	return (target ^ frameBits) & (HashEntries - 1)
}

// TestHashBitStructure verifies output bit i is the XOR of IPA bits at
// stride 12 (Section III-C2).
func TestHashBitStructure(t *testing.T) {
	for i := 0; i < HashBits; i++ {
		for group := 0; group < 4; group++ {
			bit := uint(i + 12*group)
			if bit >= 48 {
				continue
			}
			ipa := uint64(1) << bit
			want := uint16(1) << i
			if got := Hash48(ipa); got != want {
				t.Errorf("Hash48(1<<%d) = %#x, want %#x", bit, got, want)
			}
		}
	}
}

// TestHashLinearity: the hash is linear over XOR, the property the paper
// exploits in Fig 4 — colliding address pairs have identical XOR values at
// bit stride 12.
func TestHashLinearity(t *testing.T) {
	f := func(a, b uint64) bool {
		return Hash48(a^b) == Hash48(a)^Hash48(b)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

// TestFig4CollidingPairsHaveStride12XOR reproduces the Fig 4 observation:
// for any two colliding addresses, the XOR of the addresses folds to zero at
// stride 12 (grouped bits have even parity).
func TestFig4CollidingPairsHaveStride12XOR(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	for trial := 0; trial < 200; trial++ {
		a := r.Uint64() & ((1 << 48) - 1)
		// Construct a collider: flip two bits 12 apart.
		bit := uint(r.Intn(36))
		b := a ^ (1 << bit) ^ (1 << (bit + 12))
		if Hash48(a) != Hash48(b) {
			t.Fatalf("constructed pair %#x/%#x does not collide", a, b)
		}
		x := a ^ b
		folded := uint16((x ^ x>>12 ^ x>>24 ^ x>>36) & (HashEntries - 1))
		if folded != 0 {
			t.Fatalf("colliding pair XOR folds to %#x, want 0", folded)
		}
	}
}

// TestCollidingOffsetAlwaysExists is the Section IV-B1 proof: for any target
// hash and any physical frame there is a page offset that collides, hence at
// most 4096 attempts suffice.
func TestCollidingOffsetAlwaysExists(t *testing.T) {
	f := func(pfnRaw uint64, target uint16) bool {
		pfn := pfnRaw & ((1 << 36) - 1)
		target &= HashEntries - 1
		off := CollidingOffset(pfn, target)
		if off >= 1<<12 {
			return false
		}
		ipa := pfn<<12 | uint64(off)
		return Hash48(ipa) == target
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

// TestHashDistribution sanity-checks that random IPAs spread over the 4096
// buckets (no catastrophic bias).
func TestHashDistribution(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	counts := make(map[uint16]int)
	const n = 1 << 16
	for i := 0; i < n; i++ {
		counts[Hash48(r.Uint64()&((1<<48)-1))]++
	}
	// Expected ~16 per bucket; fail only on gross skew.
	for h, c := range counts {
		if c > 64 {
			t.Fatalf("bucket %#x has %d hits (gross bias)", h, c)
		}
	}
	if len(counts) < HashEntries/2 {
		t.Fatalf("only %d buckets hit", len(counts))
	}
}
