package cupti

import (
	"context"
	"errors"
	"reflect"
	"strings"
	"testing"

	"gputopdown/internal/gpu"
	"gputopdown/internal/kernel"
	"gputopdown/internal/obs"
	"gputopdown/internal/pmu"
	"gputopdown/internal/sim"
)

// fillKernel stores a constant into every element of a buffer. It is
// idempotent: from the second invocation on, the pre-launch device state is
// byte-identical, which is what the replay result cache keys on.
func fillKernel(v int64) *kernel.Program {
	b := kernel.NewBuilder("fill")
	buf := b.Param(0)
	gid := b.GlobalIDX()
	addr := b.IMad(gid, b.MovImm(4), buf)
	b.Stg(addr, b.MovImm(v), 0, 4)
	b.Exit()
	return b.MustBuild()
}

func launchFill(buf uint64, n int) *kernel.Launch {
	return &kernel.Launch{
		Program: fillKernel(7),
		Grid:    kernel.Dim3{X: n / 128},
		Block:   kernel.Dim3{X: 128},
		Params:  []uint64{buf},
	}
}

// TestReplayCacheHitsAreBitIdentical profiles an idempotent kernel with and
// without the cache: the cached session must hit from the third invocation
// on (the second is the first with byte-identical pre-state) and report
// exactly the same records and overhead totals as the uncached one.
func TestReplayCacheHitsAreBitIdentical(t *testing.T) {
	const n = 512
	run := func(cache *ReplayCache) (*Session, []KernelRecord, []uint32) {
		d := testDevice()
		buf := d.Alloc(n * 4)
		d.Storage.WriteU32Slice(buf, make([]uint32, n))
		s, err := NewSession(d, fullStallRequest(), ModeSMPC)
		if err != nil {
			t.Fatal(err)
		}
		s.SetCache(cache)
		var recs []KernelRecord
		for i := 0; i < 5; i++ {
			rec, err := s.Profile(launchFill(buf, n))
			if err != nil {
				t.Fatal(err)
			}
			recs = append(recs, *rec)
		}
		return s, recs, d.Storage.ReadU32Slice(buf, n)
	}

	plain, pr, plainMem := run(nil)
	cache := NewReplayCache(0)
	cached, cr, cachedMem := run(cache)

	hits, misses := cache.Stats()
	// Invocation 0 runs on zeroed memory (miss), invocation 1 on the filled
	// buffer (miss, new key), invocations 2..4 repeat invocation 1's bytes.
	if hits != 3 || misses != 2 {
		t.Fatalf("cache stats = %d hits / %d misses, want 3/2", hits, misses)
	}
	if !reflect.DeepEqual(cachedMem, plainMem) {
		t.Fatal("cached run left different memory state")
	}
	pn, pp := plain.Overhead()
	cn, cp := cached.Overhead()
	if pn != cn || pp != cp {
		t.Fatalf("cached overhead (%d,%d) != uncached (%d,%d)", cn, cp, pn, pp)
	}
	for i := range pr {
		cri := cr[i]
		wantCached := i >= 2
		if cri.Cached != wantCached {
			t.Errorf("record %d: Cached = %v, want %v", i, cri.Cached, wantCached)
		}
		cri.Cached = pr[i].Cached // identical except provenance
		if !reflect.DeepEqual(pr[i], cri) {
			t.Errorf("record %d diverged:\n  plain:  %+v\n  cached: %+v", i, pr[i], cr[i])
		}
	}
}

// TestReplayCacheKeyedOnMemory: a mutating kernel must never hit the cache
// across invocations, because each invocation starts from different bytes.
func TestReplayCacheKeyedOnMemory(t *testing.T) {
	const n = 256
	d := testDevice()
	buf := d.Alloc(n * 4)
	d.Storage.WriteU32Slice(buf, make([]uint32, n))
	s, err := NewSession(d, fullStallRequest(), ModeSMPC)
	if err != nil {
		t.Fatal(err)
	}
	s.SetCache(NewReplayCache(0))
	for i := 0; i < 4; i++ {
		if _, err := s.Profile(launchInc(d, buf, n)); err != nil {
			t.Fatal(err)
		}
	}
	hits, misses := s.cache.Stats()
	if hits != 0 || misses != 4 {
		t.Fatalf("mutating kernel: stats = %d hits / %d misses, want 0/4", hits, misses)
	}
	// And memory semantics survived the cache machinery.
	for i, v := range d.Storage.ReadU32Slice(buf, n) {
		if v != 4 {
			t.Fatalf("buf[%d] = %d after 4 cached-miss runs, want 4", i, v)
		}
	}
}

// TestReplayCacheKeyedOnPassCount: sessions whose schedules have different
// pass counts share a cache but never an entry — the key's schedule
// fingerprint includes the pass count — so each is charged its own passes.
func TestReplayCacheKeyedOnPassCount(t *testing.T) {
	const n = 512
	cache := NewReplayCache(0)
	d := testDevice()
	buf := d.Alloc(n * 4)
	var sessions []*Session
	for _, req := range [][]pmu.CounterID{
		fullStallRequest(),
		{pmu.CtrInstExecuted, pmu.CtrActiveCycles, pmu.CtrThreadInstExecuted},
	} {
		s, err := NewSession(d, req, ModeSMPC)
		if err != nil {
			t.Fatal(err)
		}
		s.SetCache(cache)
		sessions = append(sessions, s)
	}
	if a, b := sessions[0].NumPasses(), sessions[1].NumPasses(); a == b {
		t.Fatalf("both schedules need %d passes; the test needs two pass counts", a)
	}
	// fill is idempotent: from its second run on, every run starts from the
	// same bytes, so only the schedule tells the keys apart.
	for round := 0; round < 3; round++ {
		for _, s := range sessions {
			rec, err := s.Profile(launchFill(buf, n))
			if err != nil {
				t.Fatal(err)
			}
			if rec.Passes != s.NumPasses() {
				t.Errorf("round %d: a %d-pass session was charged %d passes (cached %v)", round, s.NumPasses(), rec.Passes, rec.Cached)
			}
		}
	}
	// Round 0 misses twice (fresh bytes, then filled bytes under the other
	// schedule); round 1 misses for the first session, whose only entry is for
	// zeroed memory, and hits for the second; round 2 hits twice.
	if hits, misses := cache.Stats(); hits != 3 || misses != 3 || cache.Len() != 3 {
		t.Errorf("cache: %d hits, %d misses, %d entries; want 3, 3, 3", hits, misses, cache.Len())
	}
}

// TestReplayCacheKeyedOnDeviceModel: sessions on two device models share a
// cache but never an entry. The second model is a one-SM copy of the first,
// so an entry handed across shows in Cycles and SMsUsed.
func TestReplayCacheKeyedOnDeviceModel(t *testing.T) {
	const n = 512
	profile := func(spec *gpu.Spec, cache *ReplayCache) []KernelRecord {
		d := sim.NewDevice(spec)
		buf := d.Alloc(n * 4)
		s, err := NewSession(d, fullStallRequest(), ModeSMPC)
		if err != nil {
			t.Fatal(err)
		}
		s.SetCache(cache)
		var recs []KernelRecord
		for i := 0; i < 3; i++ {
			rec, err := s.Profile(launchFill(buf, n))
			if err != nil {
				t.Fatal(err)
			}
			rec.Cached = false // provenance, not result
			recs = append(recs, *rec)
		}
		return recs
	}
	stock := gpu.QuadroRTX4000().WithSMs(2)
	other := stock.WithSMs(1)
	cache := NewReplayCache(0)
	profile(stock, cache)
	if got, want := profile(other, cache), profile(other, nil); !reflect.DeepEqual(got, want) {
		t.Errorf("a session on a second model got another model's records:\n got  %+v\n want %+v", got, want)
	}
	// Each model misses on zeroed and on filled memory and hits on the repeat.
	if hits, misses := cache.Stats(); hits != 2 || misses != 4 {
		t.Errorf("cache stats = %d hits / %d misses, want 2/4", hits, misses)
	}
}

// TestOversizedLocalLaunchKeepsTheSession: a launch whose local memory does
// not fit in device memory fails with an error naming the kernel and the
// bytes, moves no allocation mark, and the session — replay cache on, which
// hashes the allocated memory — profiles the next kernel as a session that
// never saw it does.
func TestOversizedLocalLaunchKeepsTheSession(t *testing.T) {
	const n = 512
	b := kernel.NewBuilder("spill")
	off := b.DeclLocal(1 << 20)
	b.Stl(b.MovImm(0), b.MovImm(1), off, 4)
	b.Exit()
	spill := &kernel.Launch{Program: b.MustBuild(), Grid: kernel.Dim3{X: 4}, Block: kernel.Dim3{X: 128}}

	run := func(oversized bool) *KernelRecord {
		d := testDevice()
		buf := d.Alloc(n * 4)
		s, err := NewSession(d, fullStallRequest(), ModeSMPC)
		if err != nil {
			t.Fatal(err)
		}
		s.SetCache(NewReplayCache(0))
		if oversized {
			mark := d.Storage.Mark()
			_, err := s.Profile(spill)
			if err == nil || errors.Is(err, ErrKernelPanic) {
				t.Fatalf("oversized local memory: error %v, want one that is not a panic", err)
			}
			for _, want := range []string{"spill", "536870912 bytes", "free"} {
				if !strings.Contains(err.Error(), want) {
					t.Errorf("error %q does not name %q", err, want)
				}
			}
			if d.Storage.Mark() != mark {
				t.Fatalf("the failed launch moved the allocation mark from %#x to %#x", mark, d.Storage.Mark())
			}
		}
		rec, err := s.Profile(launchFill(buf, n))
		if err != nil {
			t.Fatal(err)
		}
		return rec
	}
	if want, got := run(false), run(true); !reflect.DeepEqual(want, got) {
		t.Errorf("the kernel after an oversized launch profiled differently:\nwant %+v\ngot  %+v", want, got)
	}
}

// TestReplayCacheEviction bounds the cache by the bytes of its snapshots,
// evicting the oldest entries first; a snapshot larger than the bound is
// never stored, and a cache built with bound 0 holds maxReplayBytes.
func TestReplayCacheEviction(t *testing.T) {
	c := NewReplayCache(25)
	for i := 0; i < 5; i++ {
		c.put(replayKey{config: uint64(i)}, &replayEntry{post: make([]byte, 10)})
	}
	if c.Len() != 2 || c.bytes != 20 {
		t.Fatalf("cache holds %d entries of %d bytes, want 2 of 20 under a 25-byte bound", c.Len(), c.bytes)
	}
	if _, ok := c.get(replayKey{config: 4}); !ok {
		t.Fatal("newest entry evicted")
	}
	if _, ok := c.get(replayKey{config: 2}); ok {
		t.Fatal("oldest entry not evicted")
	}
	c.put(replayKey{config: 5}, &replayEntry{post: make([]byte, 26)})
	if _, ok := c.get(replayKey{config: 5}); ok || c.Len() != 2 {
		t.Fatal("an entry larger than the bound was stored")
	}
	c.put(replayKey{config: 6}, &replayEntry{post: make([]byte, 25)})
	if c.Len() != 1 || c.bytes != 25 {
		t.Fatalf("an entry of the bound's size left %d entries of %d bytes, want 1 of 25", c.Len(), c.bytes)
	}
	if c := NewReplayCache(0); c.maxBytes != maxReplayBytes {
		t.Fatalf("NewReplayCache(0) holds %d bytes, want %d", c.maxBytes, maxReplayBytes)
	}
}

// TestReplayKeyIsSpecValue: every device owns a copy of its spec, so two
// devices of one model hold different *gpu.Spec; a cache keyed on the model
// by value serves a session on the second device every invocation a session
// on the first one stored.
func TestReplayKeyIsSpecValue(t *testing.T) {
	const n = 512
	spec := gpu.QuadroRTX4000().WithSMs(2)
	cache := NewReplayCache(0)
	for _, d := range []*sim.Device{sim.NewDevice(spec), sim.NewDevice(spec)} {
		buf := d.Alloc(n * 4)
		s, err := NewSession(d, fullStallRequest(), ModeSMPC)
		if err != nil {
			t.Fatal(err)
		}
		s.SetCache(cache)
		for i := 0; i < 3; i++ {
			if _, err := s.Profile(launchFill(buf, n)); err != nil {
				t.Fatal(err)
			}
		}
	}
	// The first device misses on zeroed and on filled memory and hits the
	// repeat; the second hits all three.
	if hits, misses := cache.Stats(); hits != 4 || misses != 2 || cache.Len() != 2 {
		t.Errorf("cache: %d hits, %d misses, %d entries; want 4, 2, 2", hits, misses, cache.Len())
	}
}

// TestReplayHitLeavesDeviceAsSimulated: a hit restores the launch's memory
// effects and writes its parameters into the constant bank, so after every
// invocation the device's memory and constant-bank hashes equal those an
// uncached session's device has. Two launches with different parameters
// alternate, so a hit that skipped the parameter write would leave the
// previous launch's parameters for the next key to hash: a session on a
// second device, whose cache a first session filled, would then miss.
func TestReplayHitLeavesDeviceAsSimulated(t *testing.T) {
	const n = 512
	spec := gpu.QuadroRTX4000().WithSMs(2)
	cache := NewReplayCache(0)
	type state struct{ mem, konst uint64 }
	run := func(cache *ReplayCache) (*Session, []state) {
		d := sim.NewDevice(spec)
		a, b := d.Alloc(n*4), d.Alloc(n*4)
		s, err := NewSession(d, fullStallRequest(), ModeSMPC)
		if err != nil {
			t.Fatal(err)
		}
		s.SetCache(cache)
		var after []state
		for i := 0; i < 4; i++ {
			for _, buf := range []uint64{a, b} {
				if _, err := s.Profile(launchFill(buf, n)); err != nil {
					t.Fatal(err)
				}
				after = append(after, state{d.Storage.HashAllocated(), d.Const.Hash()})
			}
		}
		return s, after
	}
	_, want := run(nil)
	run(cache)
	second, got := run(cache)
	if !reflect.DeepEqual(got, want) {
		t.Errorf("device state after each cache-served invocation differs from the simulated one:\n got  %v\n want %v", got, want)
	}
	if hits, misses := second.CacheStats(); hits != 8 || misses != 0 {
		t.Errorf("a session on a second device hit %d and missed %d of 8 invocations the first one cached, want 8 and 0", hits, misses)
	}
}

// TestKernelErrorStructure: profiling failures surface as *KernelError with
// the kernel name and pass index, reachable through errors.As.
func TestKernelErrorStructure(t *testing.T) {
	d := testDevice()
	s, err := NewSession(d, fullStallRequest(), ModeSMPC)
	if err != nil {
		t.Fatal(err)
	}
	bad := launchInc(d, d.Alloc(1024*4), 1024)
	bad.Block = kernel.Dim3{X: 4 * kernel.MaxBlockThreads} // rejected by launch validation
	_, err = s.Profile(bad)
	if err == nil {
		t.Fatal("invalid launch profiled without error")
	}
	var ke *KernelError
	if !errors.As(err, &ke) {
		t.Fatalf("error %v is not a *KernelError", err)
	}
	if ke.Kernel != "inc" || ke.Pass != 0 {
		t.Fatalf("KernelError = {Kernel:%q Pass:%d}, want {inc 0}", ke.Kernel, ke.Pass)
	}
}

// TestProfileCtxCancellation: a cancelled context stops the profile before
// the launch and surfaces ctx.Err through the KernelError chain.
func TestProfileCtxCancellation(t *testing.T) {
	d := testDevice()
	const n = 512
	buf := d.Alloc(n * 4)
	d.Storage.WriteU32Slice(buf, make([]uint32, n))
	s, err := NewSession(d, fullStallRequest(), ModeSMPC)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	rec, err := s.ProfileCtx(ctx, launchInc(d, buf, n))
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled profile returned %v, want context.Canceled", err)
	}
	var ke *KernelError
	if !errors.As(err, &ke) {
		t.Fatalf("cancellation not wrapped in KernelError: %v", err)
	}
	if native, _ := s.Overhead(); rec != nil || native != 0 {
		t.Fatal("cancelled invocation left a record")
	}
}

// TestSetObserverTracerOnly is the regression test for the nil-registry
// hazard: a session on a device whose hooks hold a tracer without a registry
// must not panic while profiling, and spans must still be recorded; a
// registry without a tracer must count the invocation.
func TestSetObserverTracerOnly(t *testing.T) {
	d := testDevice()
	const n = 256
	buf := d.Alloc(n * 4)
	d.Storage.WriteU32Slice(buf, make([]uint32, n))
	s, err := NewSession(d, fullStallRequest(), ModeSMPC)
	if err != nil {
		t.Fatal(err)
	}
	tr := obs.NewTracer()
	d.SetHooks(obs.NewHooks(tr, nil, nil)) // no handles on a nil registry
	if _, err := s.Profile(launchInc(d, buf, n)); err != nil {
		t.Fatal(err)
	}
	if tr.Len() == 0 {
		t.Fatal("tracer-only observer recorded no spans")
	}
	// Registry only: the previous tracer is detached, the invocation counted.
	reg, events := obs.NewRegistry(), tr.Len()
	d.SetHooks(obs.NewHooks(nil, reg, nil))
	if _, err := s.Profile(launchInc(d, buf, n)); err != nil {
		t.Fatal(err)
	}
	if tr.Len() != events {
		t.Errorf("detached tracer still accumulated events: %d -> %d", events, tr.Len())
	}
	if got := reg.Counter("profiler_kernels_profiled_total", "", nil).Value(); got != 1 {
		t.Errorf("profiler_kernels_profiled_total = %v, want 1", got)
	}
	// Flipping back to fully disabled must also be safe.
	d.SetHooks(nil)
	if _, err := s.Profile(launchInc(d, buf, n)); err != nil {
		t.Fatal(err)
	}
}
