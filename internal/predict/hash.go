// Package predict implements the paper's primary contribution: the AMD Zen 3
// speculative memory access predictors (PSFP and SSBP) as reverse engineered
// in Sections III and IV, together with the Intel- and ARM-style memory
// disambiguation baselines of TABLE IV.
//
// The package is deliberately self-contained: it knows nothing about the
// pipeline. The pipeline asks Predict whether a load may bypass an
// address-unresolved older store (and whether the store's data should be
// predictively forwarded), and calls Verify with the ground truth once the
// store's address resolves. Verify applies the TABLE I counter update and is
// never rolled back — which is exactly Vulnerability 4.
package predict

// HashBits is the width of the compressed IPA selector.
const HashBits = 12

// HashEntries is the number of distinct hash values (the "4096 entries" the
// paper's fingerprinting attack scans).
const HashEntries = 1 << HashBits

// Hash48 compresses a 48-bit instruction physical address into a 12-bit
// predictor selector. As reverse engineered in Section III-C2, the function
// is 12 XOR operations, each over 4 bits of the IPA at a stride of 12:
// output bit i = ipa[i] ^ ipa[i+12] ^ ipa[i+24] ^ ipa[i+36].
func Hash48(ipa uint64) uint16 {
	folded := ipa ^ (ipa >> 12) ^ (ipa >> 24) ^ (ipa >> 36)
	return uint16(folded & (HashEntries - 1))
}
