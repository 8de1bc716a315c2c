// Command zrun assembles a text program and runs it on the simulated
// machine, printing the final registers, cycle count and any store-load
// speculation events — a workbench for building new gadgets. With -profile
// it also prints the top program counters by attributed cycles, with their
// top-down stall breakdown (issue wait, execute, SQ-stall, rollback replay,
// retire wait), and can export the profile as pprof protobuf or folded
// flamegraph text.
//
// Usage:
//
//	zrun -file prog.s [-regs "rdi=0x10000,rsi=0x10000"] [-data 0x10000:16384] [-ssbd]
//	echo 'movi rax, 42
//	halt' | zrun
//	zrun -file gadget.s -regs "rdi=0x10000" -runs 3 -pprof out.pb.gz && go tool pprof -top out.pb.gz
package main

import (
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"runtime"
	"runtime/pprof"
	"strconv"
	"strings"

	"zenspec"
	"zenspec/internal/speccheck"
)

const entryVA = 0x400000

// profileRows is the number of rows in the -profile breakdown table.
const profileRows = 20

func main() {
	file := flag.String("file", "", "assembly source (default: stdin)")
	regSpec := flag.String("regs", "", "initial registers, e.g. \"rdi=0x10000,rsi=42\"")
	dataSpec := flag.String("data", "0x10000:65536", "data mapping addr:bytes, comma separated")
	seed := flag.Int64("seed", 1, "simulation seed")
	ssbd := flag.Bool("ssbd", false, "enable SSBD")
	trace := flag.Bool("trace", false, "print store-load speculation events")
	itrace := flag.Bool("itrace", false, "print the full instruction trace (architectural and transient)")
	traceOut := flag.String("trace-out", "", "write a Perfetto/Chrome trace of the run to this path (load at ui.perfetto.dev)")
	metrics := flag.Bool("metrics", false, "print the microarchitectural metrics of the run")
	disasm := flag.Bool("d", false, "print the disassembly before running")
	scan := flag.Bool("scan", false, "scan the program for speculative-leak gadgets (as cmd/speccheck does)")
	runs := flag.Int("runs", 1, "number of runs, registers reset to -regs before each; observers accumulate over all of them")
	profile := flag.Bool("profile", false, "print the cycle-attribution profile of the runs")
	pprofOut := flag.String("pprof", "", "write the profile as pprof protobuf to this path (implies -profile)")
	flameOut := flag.String("flame", "", "write the profile as folded flamegraph text to this path (implies -profile)")
	cpuprofile := flag.String("cpuprofile", "", "write a host CPU profile of this process to the given path")
	memprofile := flag.String("memprofile", "", "write a host heap profile of this process to the given path")
	flag.Parse()
	if *runs < 1 {
		log.Fatalf("zrun: -runs must be at least 1")
	}
	if *pprofOut != "" || *flameOut != "" {
		*profile = true
	}

	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			log.Fatalf("zrun: %v", err)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			log.Fatalf("zrun: %v", err)
		}
		defer pprof.StopCPUProfile()
	}
	if *memprofile != "" {
		defer func() {
			f, err := os.Create(*memprofile)
			if err != nil {
				log.Printf("zrun: %v", err)
				return
			}
			defer f.Close()
			runtime.GC()
			if err := pprof.WriteHeapProfile(f); err != nil {
				log.Printf("zrun: %v", err)
			}
		}()
	}

	var src []byte
	var err error
	if *file == "" {
		src, err = io.ReadAll(os.Stdin)
	} else {
		src, err = os.ReadFile(*file)
	}
	if err != nil {
		log.Fatalf("zrun: %v", err)
	}
	code, err := zenspec.Assemble(string(src), entryVA)
	if err != nil {
		log.Fatalf("zrun: %v", err)
	}
	if *disasm {
		for _, line := range zenspec.Disassemble(code, entryVA) {
			fmt.Println(line)
		}
		fmt.Println()
	}
	if *scan {
		findings := speccheck.Analyze(code, speccheck.Options{Base: entryVA})
		if len(findings) == 0 {
			fmt.Println("gadget scan: no speculative-leak candidates")
		}
		for _, f := range findings {
			fmt.Println("gadget scan:", f)
		}
		fmt.Println()
	}

	m := zenspec.NewMachine(zenspec.Config{Seed: *seed, SSBD: *ssbd})
	p := m.NewProcess("zrun", zenspec.DomainUser)
	p.MapCode(entryVA, code)
	for _, spec := range strings.Split(*dataSpec, ",") {
		spec = strings.TrimSpace(spec)
		if spec == "" {
			continue
		}
		parts := strings.SplitN(spec, ":", 2)
		addr, err := strconv.ParseUint(parts[0], 0, 64)
		if err != nil {
			log.Fatalf("zrun: bad data address %q", parts[0])
		}
		size := uint64(4096)
		if len(parts) == 2 {
			size, err = strconv.ParseUint(parts[1], 0, 64)
			if err != nil {
				log.Fatalf("zrun: bad data size %q", parts[1])
			}
		}
		p.MapData(addr, size)
	}
	initRegs, err := parseRegs(*regSpec)
	if err != nil {
		log.Fatalf("zrun: %v", err)
	}
	if *itrace {
		zenspec.Observe(m, zenspec.ObserverFunc(func(ev zenspec.Event) {
			e, ok := ev.(zenspec.InstEvent)
			if !ok {
				return
			}
			mark := " "
			if e.Transient {
				mark = "~" // wrong-path execution
			}
			fmt.Printf("%s %#08x  %-28s retired-by %d\n", mark, e.PC, e.Inst, e.RetiredBy)
		}), zenspec.ObserverOptions{Classes: []zenspec.EventClass{zenspec.ClassInst}})
	}
	var rec *zenspec.TraceRecorder
	if *traceOut != "" {
		rec = zenspec.NewTraceRecorder()
		zenspec.Observe(m, rec, zenspec.ObserverOptions{})
	}
	var mets *zenspec.MetricsObserver
	if *metrics {
		mets = zenspec.NewMetricsObserver()
		zenspec.Observe(m, mets, zenspec.ObserverOptions{})
	}
	var prof *zenspec.Profiler
	if *profile {
		prof = zenspec.NewProfiler()
		zenspec.Observe(m, prof, zenspec.ObserverOptions{Classes: zenspec.ProfilerClasses()})
	}

	// A faulting run ends the loop; the report below is of the last run.
	var res zenspec.RunResult
	var cycles, insts uint64
	done := 0
	for done < *runs {
		copy(p.Regs[:], initRegs[:])
		res = m.Run(p, entryVA, 0)
		done++
		cycles += uint64(res.Cycles)
		insts += res.Insts
		if res.Stop.String() == "fault" {
			break
		}
	}
	if *runs > 1 {
		fmt.Printf("run %d of %d: ", done, *runs)
	}
	fmt.Printf("stop: %v", res.Stop)
	if res.Stop.String() == "fault" {
		fmt.Printf(" (%v at %#x, pc %#x)", res.Fault, res.FaultVA, res.FaultPC)
	}
	fmt.Printf("   cycles: %d   instructions: %d\n", res.Cycles, res.Insts)
	names := []string{"rax", "rcx", "rdx", "rbx", "rsp", "rbp", "rsi", "rdi",
		"r8", "r9", "r10", "r11", "r12", "r13", "r14", "r15"}
	for i, n := range names {
		fmt.Printf("%-4s %#18x", n, p.Regs[i])
		if i%2 == 1 {
			fmt.Println()
		} else {
			fmt.Print("   ")
		}
	}
	if *trace {
		fmt.Println("\nstore-load speculation events:")
		for _, ev := range res.Stlds {
			transient := ""
			if ev.Transient {
				transient = " (transient)"
			}
			fmt.Printf("  type %v: store IPA %#x, load IPA %#x, store VA %#x, load VA %#x%s\n",
				ev.Type, ev.StoreIPA, ev.LoadIPA, ev.StoreVA, ev.LoadVA, transient)
		}
	}
	if rec != nil {
		b, err := rec.Perfetto()
		if err != nil {
			log.Fatalf("zrun: %v", err)
		}
		if err := os.WriteFile(*traceOut, append(b, '\n'), 0o644); err != nil {
			log.Fatalf("zrun: %v", err)
		}
		fmt.Printf("\nwrote %d trace events to %s (load at https://ui.perfetto.dev)\n", rec.Len(), *traceOut)
	}
	if mets != nil {
		fmt.Println("\nmetrics:")
		fmt.Print(mets.Snapshot().Text())
	}
	if prof != nil {
		snap := prof.Snapshot()
		printProfile(snap, code, done, insts, cycles)
		if *pprofOut != "" {
			if err := writeTo(*pprofOut, snap.WritePprof); err != nil {
				log.Fatalf("zrun: %v", err)
			}
			fmt.Printf("\nwrote pprof profile to %s (go tool pprof -top %s)\n", *pprofOut, *pprofOut)
		}
		if *flameOut != "" {
			if err := writeTo(*flameOut, snap.WriteFlame); err != nil {
				log.Fatalf("zrun: %v", err)
			}
			fmt.Printf("wrote folded flamegraph to %s\n", *flameOut)
		}
	}
}

// printProfile prints the profile's top sites by attributed cycles, with the
// top-down stall breakdown and the disassembled instruction, then its squash
// sites.
func printProfile(snap *zenspec.ProfileSnapshot, code []byte, runs int, insts, cycles uint64) {
	disasm := map[uint64]string{}
	for i, line := range zenspec.Disassemble(code, entryVA) {
		disasm[entryVA+uint64(i*8)] = strings.TrimSpace(line)
	}
	fmt.Printf("\nprofile: %d run(s), %d instructions, %d cycles; %d sites, %d attributed cycles\n\n",
		runs, insts, cycles, len(snap.Samples), snap.TotalCycles)
	fmt.Printf("%10s %6s %8s %8s %8s %8s %8s  %-10s %s\n",
		"cycles", "count", "issue", "exec", "sq_stall", "replay", "retire", "pc", "instruction")
	for _, s := range snap.Top(profileRows) {
		ctx := disasm[s.PC]
		if ctx == "" {
			ctx = strings.ToLower(s.Op)
		}
		fmt.Printf("%10d %6d %8d %8d %8d %8d %8d  %#-10x %s\n",
			s.Cycles(), s.Count, s.Issue, s.Execute, s.SQStall, s.Replay, s.Retire, s.PC, ctx)
	}
	if len(snap.Squashes) > 0 {
		fmt.Println("\nsquashes:")
		for _, q := range snap.Squashes {
			fmt.Printf("%10d× %-8s window=%d penalty=%d insts=%d  %#x  %s\n",
				q.Count, q.Kind, q.Window, q.Penalty, q.Insts, q.PC, disasm[q.PC])
		}
	}
}

func writeTo(path string, write func(io.Writer) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := write(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// parseRegs resolves a "reg=value,..." spec into a full register file;
// registers it does not name are zero.
func parseRegs(spec string) ([16]uint64, error) {
	var out [16]uint64
	if strings.TrimSpace(spec) == "" {
		return out, nil
	}
	idx := map[string]int{"rax": 0, "rcx": 1, "rdx": 2, "rbx": 3, "rsp": 4,
		"rbp": 5, "rsi": 6, "rdi": 7, "r8": 8, "r9": 9, "r10": 10, "r11": 11,
		"r12": 12, "r13": 13, "r14": 14, "r15": 15}
	for _, kv := range strings.Split(spec, ",") {
		parts := strings.SplitN(strings.TrimSpace(kv), "=", 2)
		if len(parts) != 2 {
			return out, fmt.Errorf("bad register assignment %q", kv)
		}
		i, ok := idx[strings.ToLower(parts[0])]
		if !ok {
			return out, fmt.Errorf("unknown register %q", parts[0])
		}
		v, err := strconv.ParseUint(parts[1], 0, 64)
		if err != nil {
			return out, fmt.Errorf("bad value %q", parts[1])
		}
		out[i] = v
	}
	return out, nil
}
