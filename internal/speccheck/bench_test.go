package speccheck_test

import (
	"testing"

	"zenspec/internal/isa"
	"zenspec/internal/speccheck"
)

// BenchmarkScale times the four phases of the speccheck-scale experiment on
// its full-mode program, GenProgram(42, 100000):
//
//   - whole: AnalyzeAll, no cache;
//   - cold: Cache.Analyze on an empty cache;
//   - warm: a re-scan of the same bytes, one program-tier hit;
//   - edit: the re-scan after a NOP overwrites the middle instruction, on a
//     cache warm with the original bytes.
//
// Run it with
//
//	go test -run '^$' -bench BenchmarkScale -count 10 ./internal/speccheck
func BenchmarkScale(b *testing.B) {
	const insts = 100_000
	code := speccheck.GenProgram(42, insts)
	edited := append([]byte(nil), code...)
	isa.Inst{Op: isa.NOP}.Encode(edited[(insts/2)*isa.InstBytes:])
	var opts speccheck.Options

	b.Run("whole", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			speccheck.AnalyzeAll(code, opts)
		}
	})
	b.Run("cold", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			speccheck.NewCache().Analyze(code, opts)
		}
	})
	b.Run("warm", func(b *testing.B) {
		c := speccheck.NewCache()
		c.Analyze(code, opts)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			c.Analyze(code, opts)
		}
	})
	b.Run("edit", func(b *testing.B) {
		// Each re-scan needs its own cache, warm with the original bytes
		// and cold for the edited ones: a cold scan outside the timer.
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			c := speccheck.NewCache()
			c.Analyze(code, opts)
			b.StartTimer()
			c.Analyze(edited, opts)
		}
	})
}
