package check

import (
	"testing"

	"gputopdown/internal/core"
	"gputopdown/internal/sm"
)

// BenchmarkChecksDisabled gates the disabled path: a nil *Invariants must
// make every hook a pure nil check — 0 allocs/op (the CI bench smoke greps
// for it), so leaving the hook sites compiled into the hot loops is free.
func BenchmarkChecksDisabled(b *testing.B) {
	var inv *Invariants
	var c sm.Counters
	a := &core.Analysis{Level: core.Level2, IPCMax: 2}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		inv.CheckCounters("bench", &c)
		inv.CheckAnalysis(a)
		inv.CheckLaunch(nil, nil)
		inv.CheckEpoch(nil, 0)
	}
	if inv.Count() != 0 {
		b.Fatal("nil checker recorded violations")
	}
}

// BenchmarkChecksEnabledClean measures the enabled counter sweep on a clean
// snapshot — the recurring in-loop cost a -checks run pays per epoch per SM.
func BenchmarkChecksEnabledClean(b *testing.B) {
	inv := New()
	c := goodCounters()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		inv.CheckCounters("bench", &c)
	}
	if inv.Count() != 0 {
		b.Fatal("clean counters flagged")
	}
}
