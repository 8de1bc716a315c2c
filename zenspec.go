// Package zenspec is a full reproduction, as a Go library, of "Uncovering
// and Exploiting AMD Speculative Memory Access Predictors for Fun and
// Profit" (HPCA 2024).
//
// It provides a cycle-level out-of-order CPU simulator with the paper's
// reverse-engineered speculative memory access predictors (PSFP and SSBP), a
// small OS model with the paper's context-switch flush semantics, the
// reverse-engineering toolkit (timing-classified φ sequences, code sliding,
// eviction probing), the attacks (out-of-place Spectre-STL, Spectre-CTL and
// its browser variant, SSBP process fingerprinting), and the defense
// evaluation (SSBD, PSFD, and the Section VI-B mitigation sketches).
//
// The package is the public facade. RunExperiments reproduces every table
// and figure through the experiment registry; the attack entry points and a
// few experiment ones take a Config (platform preset plus mitigation knobs)
// and return self-printing result structs. Lower-level access —
// building programs, placing store-load pairs at chosen instruction physical
// addresses, peeking at predictor counters — is available through Machine
// and Lab.
package zenspec

import (
	"context"
	"log/slog"
	"time"

	"zenspec/internal/asm"
	"zenspec/internal/attack"
	"zenspec/internal/fault"
	"zenspec/internal/harness"
	"zenspec/internal/harness/suite"
	"zenspec/internal/kernel"
	"zenspec/internal/obs"
	"zenspec/internal/pipeline"
	"zenspec/internal/predict"
	"zenspec/internal/prof"
	"zenspec/internal/revng"
	"zenspec/internal/sandbox"
	"zenspec/internal/service"
	"zenspec/internal/workload"
)

// Platform identifies one of the paper's TABLE III test machines. All four
// share the same PSFP/SSBP design; the store-queue size follows the CPU
// family.
type Platform struct {
	Name      string
	CPU       string
	Microcode string
	Kernel    string
	SQSize    int
}

// platforms is the single authoritative TABLE III list; the first entry is
// the zero-Config default.
var platforms = []Platform{
	{Name: "ryzen9-5900x", CPU: "AMD Ryzen 9 5900X (Zen 3)", Microcode: "0xA201205", Kernel: "Linux 5.15.0-76-generic", SQSize: 48},
	{Name: "epyc-7543", CPU: "AMD EPYC 7543 (Zen 3)", Microcode: "0xA001173", Kernel: "Linux 6.1.0-rc4-snp-host", SQSize: 48},
	{Name: "ryzen5-5600g", CPU: "AMD Ryzen 5 5600G (Zen 3)", Microcode: "0xA50000D", Kernel: "Linux 5.15.0-76-generic", SQSize: 48},
	{Name: "ryzen7-7735hs", CPU: "AMD Ryzen 7 7735HS (Zen 3+)", Microcode: "0xA404102", Kernel: "Linux 5.4.0-153-generic", SQSize: 64},
}

// Platforms returns a copy of the TABLE III machines; mutating the returned
// slice does not affect the presets.
func Platforms() []Platform {
	out := make([]Platform, len(platforms))
	copy(out, platforms)
	return out
}

// PlatformByName finds a TABLE III preset; ok is false for unknown names.
func PlatformByName(name string) (Platform, bool) {
	for _, p := range platforms {
		if p.Name == name {
			return p, true
		}
	}
	return Platform{}, false
}

// Config selects the machine and its mitigation posture.
type Config struct {
	// Platform is a TABLE III preset; the zero value selects the Ryzen 9
	// 5900X.
	Platform Platform
	// SSBD enables Speculative Store Bypass Disable (SPEC_CTRL bit 2).
	SSBD bool
	// PSFD sets the Predictive Store Forwarding Disable bit — which the
	// paper found ineffective, and so is it here.
	PSFD bool
	// FlushSSBPOnSwitch, SaltPerDomain and RotateSalt are the Section VI-B
	// mitigation sketches.
	FlushSSBPOnSwitch bool
	SaltPerDomain     bool
	RotateSalt        bool
	// TimerQuantum and TimerJitter shape RDPRU (secure-timer mitigation and
	// the browser profile).
	TimerQuantum int64
	TimerJitter  int64
	// Seed makes every randomized structure reproducible.
	Seed int64
	// Faults is the deterministic fault-injection plan (see ParseFaultPlan):
	// timer noise, predictor pollution, cache-line eviction noise and
	// injected trial failures. The zero plan injects nothing; a faulted run
	// is still byte-reproducible at any parallelism.
	Faults FaultPlan
	// Parallelism bounds the experiment harness's worker pool; 0 means
	// GOMAXPROCS. Results are byte-identical at any value — each trial runs
	// on its own Machine with an RNG derived from (Seed, experiment ID,
	// trial index) — so the knob trades wall clock only.
	Parallelism int
	// Observer, when non-nil, is subscribed to the event bus of every
	// Machine this Config boots (including the per-trial machines the
	// experiment harness creates). Observation is strictly read-only: an
	// attached observer never changes simulation results, and a nil observer
	// costs one branch per would-be event. Observers attached to parallel
	// experiment runs must tolerate concurrent HandleEvent calls
	// (MetricsObserver and TraceRecorder both do).
	Observer Observer
	// ObserverClasses restricts which event classes reach Observer; empty
	// means all classes. It filters Observer alone, never the registries
	// Metrics and Profile attach beside it.
	ObserverClasses []EventClass
	// Metrics attaches a fresh MetricsObserver to each harness experiment
	// (composed with Observer, if any) and surfaces its snapshot as the
	// report's "micro" section. The fold is commutative, so snapshots are
	// deterministic at any Parallelism.
	Metrics bool
	// Profile attaches a fresh Profiler to each harness experiment (composed
	// with Observer, if any) and surfaces its snapshot as the report's
	// "profile" section: per-PC cycle attribution with the Fig 2 top-down
	// stall breakdown. Like Metrics the fold is commutative, so profiles are
	// byte-identical at any Parallelism.
	Profile bool
	// Progress, when non-nil, is called by RunExperiments as the suite
	// advances — as each experiment starts, with the finished count and the
	// ID starting, and once at the end with done == total. RunExperiments
	// keeps up to two experiments running at once (one at Parallelism 1)
	// but makes every Progress and Completed call from its own goroutine.
	// It feeds the live telemetry endpoint; leave nil when nothing is
	// watching.
	Progress func(done, total int, id string)
	// Completed, when non-nil, receives every finished experiment report as
	// it lands, in completion order. Accumulating these is how an
	// interrupted run keeps its partial results: AssembleExperiments turns
	// the collected reports into the suite report at any time, with skipped
	// stubs for experiments that never ran.
	Completed func(ExperimentReport)
}

// kernelConfig lowers the public Config onto the OS model.
func (c Config) kernelConfig() kernel.Config {
	sq := c.Platform.SQSize
	if sq == 0 {
		sq = 48
	}
	return kernel.Config{
		SSBD:              c.SSBD,
		PSFD:              c.PSFD,
		FlushSSBPOnSwitch: c.FlushSSBPOnSwitch,
		SaltPerDomain:     c.SaltPerDomain,
		RotateSalt:        c.RotateSalt,
		TimerQuantum:      c.TimerQuantum,
		TimerJitter:       c.TimerJitter,
		Seed:              c.Seed,
		Faults:            c.Faults,
		Parallelism:       c.Parallelism,
		Observer:          c.Observer,
		ObserverClasses:   c.ObserverClasses,
		Pipeline:          pipeline.Config{SQSize: sq},
	}
}

// FaultPlan is a deterministic fault-injection regime: seeded, serializable,
// and reproducible at any worker count. The zero value injects nothing.
type FaultPlan = fault.Plan

// ParseFaultPlan resolves a plan spec: "", "none" or "off" is the empty plan;
// "mild", "default" and "harsh" are presets; a '{...}' string is an inline
// JSON FaultPlan object.
func ParseFaultPlan(s string) (FaultPlan, error) { return fault.Parse(s) }

// Re-exported building blocks. Consumers name these through the facade; the
// implementations live in internal packages.
type (
	// Machine is a booted simulated machine: hardware threads with private
	// predictor units, shared caches and memory, and the OS model.
	Machine = kernel.Kernel
	// Process is a schedulable context with a private address space.
	Process = kernel.Process
	// Domain is a security domain (user, VM, kernel).
	Domain = kernel.Domain
	// Lab is the reverse-engineering fixture: timing-calibrated stld
	// placement and the φ notation.
	Lab = revng.Lab
	// Stld is a placed store-load microbenchmark instance.
	Stld = revng.Stld
	// Counters is the combined 5-counter predictor state of one pair.
	Counters = predict.Counters
	// ExecType is one of the Fig 2 execution types A–H.
	ExecType = predict.ExecType
	// AttackResult reports a leak attack run.
	AttackResult = attack.Result
)

// Security domains.
const (
	DomainUser   = kernel.DomainUser
	DomainVM     = kernel.DomainVM
	DomainKernel = kernel.DomainKernel
)

// RunResult reports one program run on a Machine. Its Stlds are valid until
// the Machine's next run on the same hardware thread.
type RunResult = pipeline.RunResult

// --- Observability ---

// Observer receives structured simulation events; see Config.Observer and
// Observe. ObserverFunc adapts a plain function.
type (
	// Event is the interface every typed event implements; switch on the
	// concrete type to consume one.
	Event        = obs.Event
	Observer     = obs.Observer
	ObserverFunc = obs.ObserverFunc
	// ObserverOptions filters a subscription made through Observe.
	ObserverOptions = obs.Options
	// EventClass partitions events into subscribable classes.
	EventClass = obs.Class
)

// Event classes, usable in Config.ObserverClasses and ObserverOptions.
const (
	ClassInst    = obs.ClassInst    // retired and transient instructions
	ClassSquash  = obs.ClassSquash  // pipeline squashes with window extent
	ClassForward = obs.ClassForward // store-to-load and PSF forwards
	ClassPredict = obs.ClassPredict // PSFP/SSBP queries, training, evictions
	ClassCache   = obs.ClassCache   // line fills, evictions, flushes
	ClassProbe   = obs.ClassProbe   // Flush+Reload probe verdicts
	ClassKernel  = obs.ClassKernel  // context switches, predictor flushes
	ClassFault   = obs.ClassFault   // injected faults
	ClassPMC     = obs.ClassPMC     // per-run Fig 2 PMC counter deltas
)

// Typed event structs delivered to observers. Every event implements
// obs.Event; switch on the concrete type to consume them.
type (
	InstEvent           = obs.InstEvent
	SquashEvent         = obs.SquashEvent
	ForwardEvent        = obs.ForwardEvent
	PredictEvent        = obs.PredictEvent
	PSFPTrainEvent      = obs.PSFPTrainEvent
	SSBPTransitionEvent = obs.SSBPTransitionEvent
	PredictorEvictEvent = obs.PredictorEvictEvent
	PredictorFlushEvent = obs.PredictorFlushEvent
	CacheEvent          = obs.CacheEvent
	ProbeEvent          = obs.ProbeEvent
	ContextSwitchEvent  = obs.ContextSwitchEvent
	FaultEvent          = obs.FaultEvent
	PMCEvent            = obs.PMCEvent
)

// MetricsObserver is a thread-safe counters-and-histograms registry that
// folds every event class; its Snapshot is deterministic at any worker
// count. NewMetricsObserver returns an empty one.
type MetricsObserver = obs.Metrics

// MetricsSnapshot is a point-in-time, JSON-stable metrics rendering.
type MetricsSnapshot = obs.MetricsSnapshot

// NewMetricsObserver returns an empty metrics registry.
func NewMetricsObserver() *MetricsObserver { return obs.NewMetrics() }

// Profiler is an Observer accumulating per-PC cycle attribution with the
// Fig 2 top-down stall breakdown (issue wait, execute, SQ-stall, rollback
// replay, retire wait) plus a per-site squash table. It is safe for
// concurrent HandleEvent calls and folds commutatively: one Profiler shared
// by parallel trials snapshots identically at any worker count.
type Profiler = prof.Profile

// ProfileSnapshot is a point-in-time, JSON-stable profile rendering. It
// exports to pprof protobuf (WritePprof, readable with `go tool pprof`),
// folded flamegraph text (WriteFlame), a terminal table (Text), and merges
// with other snapshots (Merge).
type ProfileSnapshot = prof.Snapshot

// ProfileSample is one profile site: a (PC, opcode) pair with its cycle
// breakdown.
type ProfileSample = prof.Sample

// NewProfiler returns an empty profiler; subscribe it with Observe (classes
// inst and squash) or set Config.Profile to let the harness manage one per
// experiment.
func NewProfiler() *Profiler { return prof.New() }

// ProfilerClasses returns the event classes a Profiler needs, for use in
// ObserverOptions or Config.ObserverClasses.
func ProfilerClasses() []EventClass { return prof.Classes() }

// Telemetry serves a live view of a running suite over HTTP: Prometheus-text
// /metrics, JSON /progress, the current simulated-machine profile at
// /profile (pprof protobuf) and /profile.txt, and the host's own
// /debug/pprof. Wire sources with SetMetrics/SetProfile, drive progress via
// Config.Progress, and bind with Serve.
type Telemetry = prof.Telemetry

// NewTelemetry returns an empty telemetry hub.
func NewTelemetry() *Telemetry { return prof.NewTelemetry() }

// Observers composes observers into one that fans events out in order,
// skipping nils; it returns nil when every argument is nil. Use it to attach
// several observers through the single Config.Observer field.
func Observers(list ...Observer) Observer { return obs.Multi(list...) }

// TraceRecorder buffers events and renders them as a Chrome trace-event /
// Perfetto JSON document (load it at https://ui.perfetto.dev). It is safe
// for concurrent HandleEvent calls.
type TraceRecorder = obs.Recorder

// NewTraceRecorder returns an empty trace recorder.
func NewTraceRecorder() *TraceRecorder { return obs.NewRecorder() }

// Observe subscribes o to a booted Machine's event bus and returns a cancel
// function. It is the post-boot equivalent of Config.Observer: one
// subscription sees all hardware threads, predictors, caches, the OS model
// and the fault injector, filtered by opts.Classes (empty means all).
func Observe(m *Machine, o Observer, opts ObserverOptions) (cancel func()) {
	return m.Observe(o, opts)
}

// NewMachine boots a machine.
func NewMachine(cfg Config) *Machine { return kernel.New(cfg.kernelConfig()) }

// Assemble parses assembly text into machine code linked at base. The
// syntax is one instruction per line with amd64 register names:
//
//	movi rax, 42
//	loop:
//	  sub rax, rax, 1
//	  jnz rax, loop
//	  halt
func Assemble(src string, base uint64) ([]byte, error) {
	b, err := asm.Parse(src)
	if err != nil {
		return nil, err
	}
	return b.Assemble(base)
}

// Disassemble renders machine code as text, one instruction per line.
func Disassemble(code []byte, base uint64) []string { return asm.Disassemble(code, base) }

// NewLab returns a machine with a calibrated timing classifier, wrapped in
// the reverse-engineering fixture. A lab whose calibration cannot depend on
// the seed (no observer, timer jitter, machine fault plan or salts) is a
// copy of one calibrated lab per machine shape; the others boot.
func NewLab(cfg Config) *Lab { return revng.NewLab(cfg.kernelConfig()) }

// Seq builds a φ input sequence: positive counts are non-aliasing (n) runs,
// negative counts aliasing (a) runs — Seq(7, -1) is the paper's "(7n, a)".
func Seq(counts ...int) []bool { return revng.Seq(counts...) }

// ParseSeq parses the paper's textual φ notation, e.g. "7n 1a 7n 1a".
func ParseSeq(s string) ([]bool, error) { return revng.ParseSeq(s) }

// --- Experiments called directly (RunExperiments runs them all) ---

// Table1 validates the TABLE I state machine on random sequences. All
// seeding derives from cfg.Seed through the harness's per-trial derivation.
func Table1(cfg Config, sequences, length int) revng.Table1Result {
	return revng.Table1(cfg.kernelConfig(), sequences, length)
}

// Fig4 checks the stride-12 XOR property of mined colliding IPA pairs.
func Fig4(cfg Config, targets int) revng.Fig4Result {
	return revng.Fig4(cfg.kernelConfig(), targets)
}

// Fig5 measures the PSFP/SSBP eviction-rate curves.
func Fig5(cfg Config, sizes []int, trials int) revng.Fig5Result {
	return revng.Fig5(cfg.kernelConfig(), nil, sizes, trials)
}

// Fig7 measures collision-finding attempts (SSBP) and the PSFP distance
// dependence.
func Fig7(cfg Config, ssbpTrials, psfpTrials int) revng.Fig7Result {
	return revng.Fig7(cfg.kernelConfig(), ssbpTrials, psfpTrials)
}

// Infer recovers the Section III design constants (C0 init, C4 limit, C3
// value, the PSF window, the PSFP capacity) from timing observations alone.
func Infer(cfg Config) revng.InferredParams { return revng.Infer(cfg.kernelConfig()) }

// TransitionTable renders the implemented TABLE I state machine, generated
// from the live Update code so it can never drift from the implementation.
func TransitionTable() string { return predict.TransitionTable() }

// --- Attacks ---

// STLOptions configures SpectreSTL.
type STLOptions = attack.STLOptions

// CTLOptions configures SpectreCTL.
type CTLOptions = attack.CTLOptions

// FingerprintOptions configures Fingerprint.
type FingerprintOptions = attack.FingerprintOptions

// SpectreSTL runs the out-of-place Spectre-STL attack (Section V-B).
func SpectreSTL(cfg Config, secret []byte, opts STLOptions) AttackResult {
	return attack.SpectreSTL(cfg.kernelConfig(), secret, opts)
}

// SpectreSTLInPlace runs the classic in-place Spectre-STL baseline the
// paper improves on: training happens through repeated victim executions.
func SpectreSTLInPlace(cfg Config, secret []byte) AttackResult {
	return attack.SpectreSTLInPlace(cfg.kernelConfig(), secret)
}

// SpectreCTL runs the Spectre-CTL attack (Section V-C1).
func SpectreCTL(cfg Config, secret []byte, opts CTLOptions) AttackResult {
	return attack.SpectreCTL(cfg.kernelConfig(), secret, opts)
}

// SpectreCTLBrowser runs the browser-timer variant (Section V-C2).
func SpectreCTLBrowser(cfg Config, secret []byte) AttackResult {
	return attack.SpectreCTLBrowser(cfg.kernelConfig(), secret)
}

// Fingerprint runs the Fig 11 CNN-model fingerprinting experiment.
func Fingerprint(cfg Config, opts FingerprintOptions) (attack.FingerprintResult, error) {
	return attack.Fingerprint(cfg.kernelConfig(), opts)
}

// SandboxEscape runs the Section V-C2 browser model end to end: JIT-only
// code generation, bounds-masked linear memory, no CLFLUSH, a coarse
// quantized timer — and a leak of renderer memory through SSBP anyway.
func SandboxEscape(cfg Config, secret []byte) (sandbox.EscapeResult, error) {
	return sandbox.Escape(cfg.kernelConfig(), secret)
}

// --- Defense ---

// SSBDOverhead runs the Fig 12 performance study over the SPECrate-like
// kernels.
func SSBDOverhead(cfg Config) workload.SSBDOverheadResult {
	return workload.SSBDOverhead(cfg.kernelConfig(), workload.SpecKernels())
}

// --- Experiment registry ---

// Experiment is one registered DESIGN.md index row: ID, paper expectation,
// and a Run function producing a report with pass bands.
type Experiment = harness.Experiment

// ExperimentReport is one experiment's outcome.
type ExperimentReport = harness.Report

// ExperimentSuite is a consolidated run of registry experiments. It renders
// itself as text (Text) or streams itself as indented JSON to any io.Writer
// (WriteJSON); its Stable copy, which StableJSON renders into one buffer, is
// the worker-count-independent form.
type ExperimentSuite = harness.SuiteReport

// ErrUnknownExperiment is wrapped into the error RunExperiments returns when
// a selection names an experiment the registry does not have; test with
// errors.Is.
var ErrUnknownExperiment = harness.ErrUnknownExperiment

// Experiments lists the registered experiments in report order — one per
// row of DESIGN.md's per-experiment index.
func Experiments() []Experiment { return suite.Registry().All() }

// RunExperiments runs the selected registry entries (nil ids means all) at
// cfg's seed and parallelism. Quick selects reduced trial counts;
// cfg.Metrics adds a per-experiment "micro" metrics section to each report.
func RunExperiments(cfg Config, quick bool, ids []string) (ExperimentSuite, error) {
	return suite.Registry().Run(harness.Ctx{
		Config:    cfg.kernelConfig(),
		Quick:     quick,
		Metrics:   cfg.Metrics,
		Profile:   cfg.Profile,
		Progress:  cfg.Progress,
		Completed: cfg.Completed,
	}, ids)
}

// AssembleExperiments builds the suite report an uninterrupted RunExperiments
// over the same selection would have produced, from independently collected
// per-experiment reports (keyed by ID; see Config.Completed). Experiments of
// the selection missing from reports appear as stubs with status "skipped" —
// the partial-report shape an interrupted run emits; with every report
// present the result is byte-identical to RunExperiments'.
func AssembleExperiments(cfg Config, quick bool, ids []string, reports map[string]ExperimentReport) (ExperimentSuite, error) {
	return suite.Registry().Assemble(harness.Ctx{
		Config:  cfg.kernelConfig(),
		Quick:   quick,
		Metrics: cfg.Metrics,
		Profile: cfg.Profile,
	}, ids, reports)
}

// --- Remote workers ---

// WorkerOptions tunes ServeWorker.
type WorkerOptions struct {
	// Name identifies the worker to the daemon (defaults to "worker").
	Name string
	// Parallelism is the per-shard trial-loop parallelism; 0 means 1. Reports
	// are byte-identical at any value.
	Parallelism int
	// Poll is how long each lease request waits server-side for work before
	// coming back empty; 0 means 2s.
	Poll time.Duration
	// Logger, when set, receives one structured record per lease event with
	// job/shard/lease/worker/attempt/trace fields. Nil means silent.
	Logger *slog.Logger
}

// ServeWorker connects to a zenspecd daemon at url (e.g.
// "http://127.0.0.1:8787"), pulls shard leases over the /v1 job API, and runs
// them on the full experiment registry until ctx is cancelled — the core of
// cmd/zenspec-worker, exported so programs can embed a worker. Daemon
// outages and restarts are ridden out with backoff; a worker killed
// mid-shard just stops heartbeating, and the daemon re-leases the shard to
// someone else with no effect on the job's final bytes.
func ServeWorker(ctx context.Context, url string, opts WorkerOptions) error {
	w := service.NewWorker(&service.Client{Base: url}, service.WorkerConfig{
		Name:        opts.Name,
		Registry:    suite.Registry(),
		Parallelism: opts.Parallelism,
		Poll:        opts.Poll,
		Logger:      opts.Logger,
	})
	return w.Run(ctx)
}
