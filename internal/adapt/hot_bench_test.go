package adapt

import (
	"testing"

	"repro/internal/pipeline"
	"repro/internal/tech"
	"repro/internal/workload"
)

// benchProfile builds a representative profile for solver micro-benchmarks.
func benchProfile(b *testing.B) pipeline.Profile {
	b.Helper()
	app, err := workload.ByName("gcc")
	if err != nil {
		b.Fatal(err)
	}
	prof, err := pipeline.BuildProfile(app, app.Phases[0], 20000, 5)
	if err != nil {
		b.Fatal(err)
	}
	return prof
}

// BenchmarkPowerSolveHot measures one per-subsystem Power-algorithm scan
// over warm PE tables — the dominant cost of fuzzy-controller training.
// Power solves are not memoized, so every iteration runs the full scan.
func BenchmarkPowerSolveHot(b *testing.B) {
	core := buildCore(b, 2, asvConfig)
	prof := benchProfile(b)
	q := core.QueryFor(0, prof, thTest, tech.QueueFull, tech.FUNormal)
	core.PowerSolve(0, 1.0, q) // warm the cache
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		core.PowerSolve(0, 1.0, q)
	}
}

// BenchmarkFreqSolveHot measures one per-subsystem Freq-algorithm scan
// over warm PE tables. Freq solves are not memoized, so every iteration
// runs the best-first search.
func BenchmarkFreqSolveHot(b *testing.B) {
	core := buildCore(b, 2, asvConfig)
	prof := benchProfile(b)
	q := core.QueryFor(0, prof, thTest, tech.QueueFull, tech.FUNormal)
	core.FreqSolve(0, q)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		core.FreqSolve(0, q)
	}
}

// BenchmarkPropose measures a full controller invocation (15 Freq solves,
// the structure decisions, 15 Power solves, the PMAX check) over warm PE
// tables.
func BenchmarkPropose(b *testing.B) {
	core := buildCore(b, 2, preferred)
	prof := benchProfile(b)
	core.Propose(prof, thTest, Exhaustive{})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.Propose(prof, thTest, Exhaustive{}); err != nil {
			b.Fatal(err)
		}
	}
}
