// Command speccheck statically audits machine code (raw binary or assembly
// source) for speculative-leak gadgets with the CFG-based always-mispredict
// analyzer: Spectre-STL (store-bypass) and Spectre-CTL (mispredicted-branch)
// candidates, each with an instruction-offset witness chain. With -validate
// every finding is replayed through the pipeline simulator with mistrained
// predictors and classified as dynamically confirmed or a static
// over-approximation. With -cache the analysis runs through a persistent
// incremental cache keyed by content-hashed per-source dependency closures,
// so re-scans after local edits only recompute what the edit can affect.
//
// Usage:
//
//	speccheck -bin prog.bin [-window 48] [-stride 1]
//	speccheck -asm prog.s -validate
//	speccheck -bin prog.bin -cache .speccheck-cache
//	cat prog.s | speccheck -json
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"log"
	"os"

	"zenspec"
	"zenspec/internal/speccheck"
)

func main() {
	binFile := flag.String("bin", "", "raw machine-code file to scan")
	asmFile := flag.String("asm", "", "assembly source to assemble and scan (default: stdin)")
	base := flag.Uint64("base", 0x400000, "virtual address the code is linked/mapped at")
	window := flag.Int("window", speccheck.DefaultWindow, "transient-window reach in instructions")
	stride := flag.Int("stride", 0, "scan stride in bytes; 1 slides over every byte offset (default: instruction size)")
	stl := flag.Bool("stl", false, "report only Spectre-STL (store-bypass) findings")
	ctl := flag.Bool("ctl", false, "report only Spectre-CTL (branch) findings")
	validate := flag.Bool("validate", false, "replay findings through the pipeline simulator and classify them")
	jsonOut := flag.Bool("json", false, "emit JSON instead of text")
	dumpCFG := flag.Bool("cfg", false, "dump the reconstructed control-flow graph and exit")
	cacheDir := flag.String("cache", "", "directory for the persistent incremental analysis cache")
	flag.Parse()

	code := readCode(*binFile, *asmFile, *base)

	if *dumpCFG {
		fmt.Print(speccheck.BuildCFG(code, *base))
		return
	}

	opts := speccheck.Options{
		Window: *window,
		Base:   *base,
		Stride: *stride,
		STL:    *stl,
		CTL:    *ctl,
	}
	res := analyze(code, opts, *cacheDir)
	findings := res.Findings

	if *validate {
		report := speccheck.ValidateAll(code, findings, speccheck.ValidateOptions{Base: *base})
		if *jsonOut {
			emitJSON(report)
		} else {
			fmt.Print(report)
		}
		if report.Confirmed() > 0 {
			os.Exit(1)
		}
		return
	}

	if *jsonOut {
		if res.Findings == nil {
			res.Findings = []speccheck.Finding{}
		}
		emitJSON(res)
	} else {
		if len(findings) == 0 {
			fmt.Println("no speculative-leak candidates")
		} else {
			fmt.Printf("%d finding(s):\n", len(findings))
			for _, f := range findings {
				fmt.Println(" ", f)
			}
			fmt.Println("\nEach finding is a speculation source (a bypassable store or a")
			fmt.Println("mispredictable branch), the dependent-load chain a transient window")
			fmt.Println("can execute, and the transmitter that encodes the value into the")
			fmt.Println("cache. Run with -validate to replay them through the simulator.")
		}
		if res.Truncated > 0 {
			fmt.Printf("warning: %d source(s) hit the state budget; findings may be incomplete (raise MaxStates)\n", res.Truncated)
		}
	}
	if len(findings) > 0 {
		os.Exit(1) // nonzero exit for CI-style gating
	}
}

// analyze runs the whole-program engine, or the incremental cache when a
// cache directory is configured.
func analyze(code []byte, opts speccheck.Options, cacheDir string) speccheck.Result {
	if cacheDir == "" {
		return speccheck.AnalyzeAll(code, opts)
	}
	c, err := speccheck.OpenCache(cacheDir)
	if err != nil {
		log.Fatalf("speccheck: %v", err)
	}
	return c.Analyze(code, opts)
}

func readCode(binFile, asmFile string, base uint64) []byte {
	if binFile != "" {
		b, err := os.ReadFile(binFile)
		if err != nil {
			log.Fatalf("speccheck: %v", err)
		}
		return b
	}
	var src []byte
	var err error
	if asmFile != "" {
		src, err = os.ReadFile(asmFile)
	} else {
		src, err = io.ReadAll(os.Stdin)
	}
	if err != nil {
		log.Fatalf("speccheck: %v", err)
	}
	code, err := zenspec.Assemble(string(src), base)
	if err != nil {
		log.Fatalf("speccheck: %v", err)
	}
	return code
}

func emitJSON(v any) {
	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "  ")
	if err := enc.Encode(v); err != nil {
		log.Fatalf("speccheck: %v", err)
	}
}
