// Command gadgetscan statically audits machine code (raw binary or
// assembly source) for the speculative store-bypass gadget shape the
// paper's attacks need — Listings 2 and 3's store → load → dependent load →
// transmitter chain.
//
// Usage:
//
//	gadgetscan -bin prog.bin
//	gadgetscan -asm prog.s
//	cat prog.s | gadgetscan
package main

import (
	"flag"
	"fmt"
	"io"
	"log"
	"os"

	"zenspec"
)

func main() {
	binFile := flag.String("bin", "", "raw machine-code file to scan")
	asmFile := flag.String("asm", "", "assembly source to assemble and scan (default: stdin)")
	flag.Parse()

	var code []byte
	switch {
	case *binFile != "":
		b, err := os.ReadFile(*binFile)
		if err != nil {
			log.Fatalf("gadgetscan: %v", err)
		}
		code = b
	default:
		var src []byte
		var err error
		if *asmFile != "" {
			src, err = os.ReadFile(*asmFile)
		} else {
			src, err = io.ReadAll(os.Stdin)
		}
		if err != nil {
			log.Fatalf("gadgetscan: %v", err)
		}
		code, err = zenspec.Assemble(string(src), 0)
		if err != nil {
			log.Fatalf("gadgetscan: %v", err)
		}
	}

	cands := zenspec.ScanGadgets(code)
	if len(cands) == 0 {
		fmt.Println("no speculative store-bypass gadget candidates")
		return
	}
	fmt.Printf("%d candidate(s):\n", len(cands))
	for _, c := range cands {
		fmt.Println(" ", c)
	}
	fmt.Println("\nEach candidate is a store whose address may resolve late, a load")
	fmt.Println("that can bypass it under an SSBP misprediction, and a dependent")
	fmt.Println("chain that transmits the transient value — review whether the store")
	fmt.Println("address can be attacker-delayed and the first load's stale value")
	fmt.Println("attacker-planted (Listings 2 and 3 of the paper).")
	os.Exit(1) // nonzero exit for CI-style gating
}
