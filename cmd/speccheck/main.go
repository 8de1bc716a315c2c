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
// The exit code is 0 for a clean scan and 1 when there are findings (under
// -validate, confirmed findings), so CI can gate on it. Every error, a
// failed write of the report included, exits 2.
//
// Usage:
//
//	speccheck -bin prog.bin [-window 48] [-stride 1]
//	speccheck -asm prog.s -validate
//	speccheck -bin prog.bin -cache .speccheck-cache
//	cat prog.s | speccheck -json
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"

	"zenspec"
	"zenspec/internal/speccheck"
)

func main() { os.Exit(run()) }

// run is main's body returning the exit code: 1 on findings, 2 on any error.
func run() int {
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

	code, err := readCode(*binFile, *asmFile, *base)
	if err != nil {
		return fail(err)
	}
	// Output goes through one buffer: a failed write sticks in it and
	// surfaces at Flush, whichever print hit it.
	out := bufio.NewWriter(os.Stdout)
	verdict := 0
	if *dumpCFG {
		fmt.Fprint(out, speccheck.BuildCFG(code, *base))
	} else {
		opts := speccheck.Options{Window: *window, Base: *base, Stride: *stride, STL: *stl, CTL: *ctl}
		res, err := analyze(code, opts, *cacheDir)
		if err != nil {
			return fail(err)
		}
		if *validate {
			report := speccheck.ValidateAll(code, res.Findings, speccheck.ValidateOptions{Base: *base})
			if *jsonOut {
				err = writeJSON(out, report)
			} else {
				fmt.Fprint(out, report)
			}
			if report.Confirmed() > 0 {
				verdict = 1
			}
		} else {
			if *jsonOut {
				if res.Findings == nil {
					res.Findings = []speccheck.Finding{}
				}
				err = writeJSON(out, res)
			} else {
				writeText(out, res)
			}
			if len(res.Findings) > 0 {
				verdict = 1 // nonzero exit for CI-style gating
			}
		}
		if err != nil {
			return fail(err)
		}
	}
	if err := out.Flush(); err != nil {
		return fail(err)
	}
	return verdict
}

// fail reports an error on stderr and returns the error exit code.
func fail(err error) int {
	fmt.Fprintln(os.Stderr, "speccheck:", err)
	return 2
}

// writeText renders the findings for a terminal.
func writeText(w io.Writer, res speccheck.Result) {
	if len(res.Findings) == 0 {
		fmt.Fprintln(w, "no speculative-leak candidates")
	} else {
		fmt.Fprintf(w, "%d finding(s):\n", len(res.Findings))
		for _, f := range res.Findings {
			fmt.Fprintln(w, " ", f)
		}
		fmt.Fprintln(w, "\nEach finding is a speculation source (a bypassable store or a")
		fmt.Fprintln(w, "mispredictable branch), the dependent-load chain a transient window")
		fmt.Fprintln(w, "can execute, and the transmitter that encodes the value into the")
		fmt.Fprintln(w, "cache. Run with -validate to replay them through the simulator.")
	}
	if res.Truncated > 0 {
		fmt.Fprintf(w, "warning: %d source(s) hit the state budget; findings may be incomplete (raise MaxStates)\n", res.Truncated)
	}
}

// analyze runs the whole-program engine, or the incremental cache when a
// cache directory is configured.
func analyze(code []byte, opts speccheck.Options, cacheDir string) (speccheck.Result, error) {
	if cacheDir == "" {
		return speccheck.AnalyzeAll(code, opts), nil
	}
	c, err := speccheck.OpenCache(cacheDir)
	if err != nil {
		return speccheck.Result{}, err
	}
	return c.Analyze(code, opts), nil
}

func readCode(binFile, asmFile string, base uint64) ([]byte, error) {
	if binFile != "" {
		return os.ReadFile(binFile)
	}
	var src []byte
	var err error
	if asmFile != "" {
		src, err = os.ReadFile(asmFile)
	} else {
		src, err = io.ReadAll(os.Stdin)
	}
	if err != nil {
		return nil, err
	}
	return zenspec.Assemble(string(src), base)
}

// writeJSON writes v as indented JSON.
func writeJSON(w io.Writer, v any) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(v)
}
