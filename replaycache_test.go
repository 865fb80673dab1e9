package gputopdown

import (
	"bytes"
	"context"
	"testing"

	"gputopdown/internal/cupti"
	"gputopdown/internal/kernel"
	"gputopdown/internal/pmu"
	"gputopdown/internal/workloads"
)

// emptyReplayResults drops every entry of the process's replay cache, so the
// next WithReplayCache run simulates what it launches first.
func emptyReplayResults() { replayResults = cupti.NewReplayCache(0) }

// cacheLookups returns the replay-cache hits and misses counted on reg.
func cacheLookups(reg *MetricsRegistry) (hits, misses float64) {
	return reg.Counter("profiler_replay_cache_hits_total", "", nil).Value(),
		reg.Counter("profiler_replay_cache_misses_total", "", nil).Value()
}

// TestReplayResultsOutliveProfiler: replay results belong to the process, so
// a second fresh profiler of the same model is served every launch of an app
// the first one profiled, and its report is byte-identical to the first's.
// The apps are the two whose launches alternate parameter values: a hit also
// writes its launch's parameters into the constant bank, so the launch after
// it hashes what a simulated launch would have left, and the cache holds one
// entry per distinct launch (two of each app's three).
func TestReplayResultsOutliveProfiler(t *testing.T) {
	for _, app := range []string{"myocyte", "nn"} {
		emptyReplayResults()
		run := func() (report []byte, hits, misses float64) {
			reg := NewMetricsRegistry()
			report = profileReport(t, NewProfiler(QuadroRTX4000(), WithReplayCache(true), WithObserver(nil, reg)), "rodinia", app)
			hits, misses = cacheLookups(reg)
			return report, hits, misses
		}
		first, _, _ := run()
		if n := replayResults.Len(); n != 2 {
			t.Errorf("rodinia/%s: the cache holds %d entries after one run, want 2 (one per distinct launch)", app, n)
		}
		second, hits, misses := run()
		if hits != 3 || misses != 0 {
			t.Errorf("rodinia/%s: a second fresh profiler hit %v and missed %v launches, want 3 and 0", app, hits, misses)
		}
		if !bytes.Equal(first, second) {
			t.Errorf("rodinia/%s: the cache-served report differs from the simulated one", app)
		}
	}
}

// TestReplayResultsBoundedByBytes: the process's replay cache is bounded by
// the bytes of the memory snapshots it holds, the oldest evicted first.
// Every launch of a GemmAutotune instance has the same snapshot size and two
// of its keys are distinct, so a bound of one snapshot keeps one entry and
// every run misses both keys again, a bound of two keeps both and a repeat
// run is all hits, and a bound below one snapshot stores nothing.
func TestReplayResultsBoundedByBytes(t *testing.T) {
	defer func(c *cupti.ReplayCache) { replayResults = c }(replayResults)
	spec, app := QuadroRTX4000().WithSMs(2), workloads.GemmAutotuneSized(32, 4)
	run := func() *Collection {
		t.Helper()
		col, err := NewProfiler(spec, WithReplayCache(true)).Collect(context.Background(), app,
			[]pmu.CounterID{pmu.CtrInstExecuted}, func(*kernel.Launch, *cupti.KernelRecord) error { return nil })
		if err != nil {
			t.Fatal(err)
		}
		return col
	}
	emptyPool()
	replayResults = cupti.NewReplayCache(0)
	run()
	snapshot := len(idle()[0].Storage.Snapshot())

	for _, tc := range []struct {
		bound                  int
		hits, misses           uint64
		entries                int
		repeatHits, repeatMiss uint64
	}{
		{snapshot - 1, 0, 4, 0, 0, 4},
		{snapshot, 2, 2, 1, 2, 2},
		{2 * snapshot, 2, 2, 2, 4, 0},
	} {
		replayResults = cupti.NewReplayCache(tc.bound)
		first, repeat := run(), run()
		if first.CacheHits != tc.hits || first.CacheMisses != tc.misses || first.CacheEntries != tc.entries ||
			repeat.CacheHits != tc.repeatHits || repeat.CacheMisses != tc.repeatMiss || repeat.CacheEntries != tc.entries {
			t.Errorf("bound %d bytes (snapshot %d): runs hit/missed/held %d/%d/%d then %d/%d/%d; want %d/%d/%d then %d/%d/%d",
				tc.bound, snapshot, first.CacheHits, first.CacheMisses, first.CacheEntries,
				repeat.CacheHits, repeat.CacheMisses, repeat.CacheEntries,
				tc.hits, tc.misses, tc.entries, tc.repeatHits, tc.repeatMiss, tc.entries)
		}
	}
}
