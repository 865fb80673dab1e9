// Replay result cache: deterministic memoization of byte-identical kernel
// invocations.
//
// The device simulator is deterministic (internal/sim), so a kernel
// invocation is fully determined by (device model, program fingerprint,
// launch configuration, device-memory snapshot hash, constant-bank hash)
// together with the session's collection mode and pass schedule identity.
// When the same key recurs — an autotuning harness replays the same
// configuration with identical inputs tens of times × 8 passes
// (workloads.GemmAutotune models this) — the session can skip
// re-simulation entirely: it replays the recorded counter values, re-applies
// the recorded memory effects, writes the launch's parameters into the
// constant bank as the launch would have, and still charges the full simulated
// replay+flush cost to the Fig. 13 overhead accounting, so cached and
// uncached sessions report bit-identical results.
package cupti

import (
	"sync"

	"gputopdown/internal/gpu"
	"gputopdown/internal/kernel"
	"gputopdown/internal/pmu"
)

// replayKey identifies a byte-identical kernel invocation on one device model
// under a fixed collection mode and pass schedule.
type replayKey struct {
	// spec is the device model, by value: a cache shared by sessions on two
	// models must not hand one model's counters to the other's launch, and
	// every device owns a copy of its spec (sim.NewDeviceMem), so two devices
	// of one model share entries only if the key compares the values.
	spec gpu.Spec
	// config folds the program fingerprint, grid/block geometry, dynamic
	// shared memory and parameter values (kernel.Launch.ConfigHash).
	config uint64
	// mem hashes the allocation watermark plus all allocated device memory.
	mem uint64
	// konst hashes the constant bank (applications may rewrite __constant__
	// data between launches).
	konst uint64
	// mode and sched pin the collection mechanism and the pass identity the
	// cached merged values were produced under; sched (pmu.Schedule's
	// Fingerprint) folds in the pass count.
	mode  Mode
	sched uint64
}

// replayEntry is one memoized invocation: the merged counter readings, the
// native duration, and the memory effects of running the kernel once.
type replayEntry struct {
	values  pmu.Values
	cycles  uint64
	smsUsed int
	// post is the device-memory snapshot after the kernel ran (same
	// watermark as the pre-launch snapshot the key hashed).
	post []byte
}

// ReplayCache memoizes profiled kernel invocations. It is safe for
// concurrent use by multiple sessions, on one device or several, of one
// model or several; determinism is preserved because every entry is a pure
// function of its key, so it does not matter which session populates it.
// Its bound is the bytes of the post-launch snapshots it holds, the only
// part of an entry that grows with the application; past it the oldest
// entries are evicted first.
type ReplayCache struct {
	mu       sync.Mutex
	maxBytes int
	bytes    int
	entries  map[replayKey]*replayEntry
	order    []replayKey
	hits     uint64
	misses   uint64
}

// maxReplayBytes is the bound NewReplayCache(0) gives: the bytes of the
// post-launch memory snapshots the cache holds, which is what an entry costs.
// A snapshot is the application's allocated device memory, 6 KB
// (rodinia/myocyte) to 8.4 MB (altis/gups) per launch across the suites. A
// process keeps its cache for as long as it runs and can profile
// configurations without limit (daemon jobs, autotuning sweeps), so past
// this many bytes the oldest entries are evicted. 64 MiB holds every launch
// of any one suite application (the most is rodinia/gaussian's 48 launches
// of 1 MB) or the two distinct launches of about 160 GemmAutotune
// configurations, and is the live heap of two or three idle devices.
const maxReplayBytes = 64 << 20

// NewReplayCache builds a cache holding at most maxBytes of post-launch
// snapshots (0 means maxReplayBytes). An invocation whose snapshot alone
// exceeds the bound is never stored.
func NewReplayCache(maxBytes int) *ReplayCache {
	if maxBytes <= 0 {
		maxBytes = maxReplayBytes
	}
	return &ReplayCache{maxBytes: maxBytes, entries: map[replayKey]*replayEntry{}}
}

// get returns the entry for key, counting the hit or miss.
func (c *ReplayCache) get(key replayKey) (*replayEntry, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	e, ok := c.entries[key]
	if ok {
		c.hits++
	} else {
		c.misses++
	}
	return e, ok
}

// put stores an entry, evicting the oldest until its snapshot fits. Racing
// puts for the same key are idempotent by determinism; first writer wins.
func (c *ReplayCache) put(key replayKey, e *replayEntry) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, ok := c.entries[key]; ok {
		return
	}
	size := len(e.post)
	if size > c.maxBytes {
		return
	}
	for c.bytes+size > c.maxBytes {
		oldest := c.order[0]
		c.order = c.order[1:]
		c.bytes -= len(c.entries[oldest].post)
		delete(c.entries, oldest)
	}
	c.entries[key] = e
	c.order = append(c.order, key)
	c.bytes += size
}

// Len returns the number of cached invocations.
func (c *ReplayCache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.entries)
}

// Stats returns the lifetime hit and miss counts.
func (c *ReplayCache) Stats() (hits, misses uint64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.hits, c.misses
}

// keyFor derives the cache key of a launch against the session's current
// device state. memHash must be HashAllocated of the pre-launch memory.
func (s *Session) keyFor(l *kernel.Launch, memHash uint64) replayKey {
	return replayKey{
		spec:   *s.dev.Spec,
		config: l.ConfigHash(),
		mem:    memHash,
		konst:  s.dev.Const.Hash(),
		mode:   s.mode,
		sched:  s.schedFP,
	}
}
