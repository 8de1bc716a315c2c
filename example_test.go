package zenspec_test

import (
	"fmt"

	"zenspec"
)

// The φ notation: run the paper's (n, a, 2n) sequence and watch the
// predictor train through timing classes alone.
func ExampleNewLab() {
	lab := zenspec.NewLab(zenspec.Config{Seed: 1})
	s := lab.PlaceStld()
	for _, aliasing := range zenspec.Seq(1, -1, 2) {
		ob := s.Run(aliasing)
		fmt.Println(ob.Class, ob.TrueType)
	}
	// Output:
	// fast H
	// rollback G
	// stall E
	// stall E
}

func ExampleParseSeq() {
	seq, _ := zenspec.ParseSeq("7n 1a")
	fmt.Println(len(seq), seq[7])
	// Output: 8 true
}

func ExampleAssemble() {
	code, _ := zenspec.Assemble(`
		movi rax, 6
		imul rax, rax, rax
		halt
	`, 0x400000)
	for _, line := range zenspec.Disassemble(code, 0x400000) {
		fmt.Println(line)
	}
	// Output:
	// 0x400000: movi rax, 6
	// 0x400008: imul rax, rax, rax
	// 0x400010: halt
}
