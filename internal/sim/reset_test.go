package sim

import (
	"bytes"
	"log/slog"
	"reflect"
	"testing"
	"unsafe"

	"gputopdown/internal/gpu"
	"gputopdown/internal/isa"
	"gputopdown/internal/kernel"
	"gputopdown/internal/mem"
	"gputopdown/internal/obs"
)

// countingChecker is a Checker that only counts its calls.
type countingChecker struct{ calls int }

func (c *countingChecker) CheckEpoch(*Device, uint64)      { c.calls++ }
func (c *countingChecker) CheckLaunch(*Device, *RunResult) { c.calls++ }

// buildFill loads each of the n words at base, which leaves their lines in
// L1 and L2, and stores a non-zero word over it.
func buildFill() *kernel.Program {
	b := kernel.NewBuilder("fill")
	base, n := b.Param(0), b.Param(1)
	gid := b.GlobalIDX()
	b.ExitIf(b.ISetp(isa.CmpGE, gid, n), false)
	addr := b.IAdd(base, b.Shl(gid, 2))
	b.Stg(addr, b.IAdd(b.Ldg(addr, 0, 4), b.MovImm(0x5A5A5A5A)), 0, 4)
	b.Exit()
	return b.MustBuild()
}

// buildReadBack stores, for every thread, the sum of a global word and a
// __constant__ word it never wrote: out[gid] = src[gid] + c[ParamSpace +
// 4*(gid % constWords)], with constWords a power of two.
func buildReadBack(constWords int) *kernel.Program {
	b := kernel.NewBuilder("readback")
	out, src := b.Param(0), b.Param(1)
	gid := b.GlobalIDX()
	off := b.Shl(gid, 2)
	g := b.Ldg(b.IAdd(src, off), 0, 4)
	c := b.Ldc(b.Shl(b.AndImm(gid, int64(constWords-1)), 2), kernel.ParamSpace, 4)
	b.Stg(b.IAdd(out, off), b.IAdd(g, c), 0, 4)
	b.Exit()
	return b.MustBuild()
}

// probeOutcome is everything a run of the probe kernels can observe of the
// device it ran on.
type probeOutcome struct {
	runs      []*RunResult
	ticks     []uint64
	out       []uint32
	memHash   uint64
	constHash uint64
	mem       *mem.MemSys
	simEvents []obs.Event
}

// probe runs, on a device as ProfileApp would find it, kernels that read what
// they never wrote — registers, predicates, shared, global and __constant__
// memory — with a partial last warp, under a tracer attached afresh.
func probe(t *testing.T, d *Device) probeOutcome {
	t.Helper()
	const threads, blocks, constWords = 80, 30, 256
	n := threads * blocks
	tr := obs.NewTracer()
	d.SetHooks(obs.NewHooks(tr, nil, nil))
	out := d.Alloc(2 * n * 4)
	unread := d.Alloc(n * 4)
	var o probeOutcome
	for _, l := range []*kernel.Launch{
		{Program: buildProbe(40, threads, 4), Params: []uint64{out}},
		{Program: buildReadBack(constWords), Params: []uint64{out + uint64(n*4), unread}},
	} {
		l.Grid, l.Block = kernel.Dim3{X: blocks}, kernel.Dim3{X: threads}
		o.runs = append(o.runs, d.MustLaunch(l))
		o.ticks = append(o.ticks, d.LastLaunchTicks())
	}
	o.out = d.Storage.ReadU32Slice(out, 2*n)
	o.memHash, o.constHash = d.Storage.HashAllocated(), d.Const.Hash()
	o.mem = d.Mem
	for _, e := range tr.Events() {
		if e.PID == obs.PIDSim {
			o.simEvents = append(o.simEvents, e)
		}
	}
	return o
}

// TestResetDeviceBitIdentical is the oracle for Device.Reset: a device that a
// panicked kernel, a wide band of global loads and stores, kernels writing
// every register, predicate and shared byte, host __constant__ writes,
// tracing, a checker, an observer, a logger and the reference mode have left
// dirty must, once reset, run the probe kernels exactly as a new device does —
// launch results, per-SM counters (L1 and L2 hits and misses among them),
// loop ticks, what the probes read, memory and constant hashes, the L2 slices'
// lines and the DRAM channels' bus cycles, simulated-time trace events —
// and report nothing to what was attached before the reset. No suite app
// reads memory it did not write, so the golden corpus cannot tell a reset that
// leaves global memory dirty from one that zeroes it; this test can.
func TestResetDeviceBitIdentical(t *testing.T) {
	spec := testSpec()
	want := probe(t, NewDevice(spec))

	d := NewDevice(spec)
	chk, tr := &countingChecker{}, obs.NewTracer()
	var logged bytes.Buffer
	d.SetChecker(chk)
	d.SetHooks(obs.NewHooks(tr, obs.NewRegistry(), obs.NewLogger(&logged, slog.LevelDebug, "text")))
	d.EnableTrace(64)
	d.SetReference(true)

	// The panic comes first: recovering from it resets the SMs, which would
	// clean what the later launches leave in their caches and contexts.
	b := kernel.NewBuilder("wild")
	b.Ldg(b.IMad(b.GlobalIDX(), b.MovImm(4), b.MovImm(1<<30)), 0, 4)
	b.Exit()
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("wild load did not panic")
			}
		}()
		_, _ = d.Launch(&kernel.Launch{Program: b.MustBuild(), Grid: kernel.Dim3{X: 2}, Block: kernel.Dim3{X: 64}})
	}()
	d.ResetSMs()
	const band = 1 << 21
	base := d.Alloc(band)
	// The whole band, then again its first 64 KiB, which the probes will
	// reallocate: those lines are the last ones L1 loaded.
	for _, words := range []uint64{band / 4, 1 << 14} {
		d.MustLaunch(&kernel.Launch{Program: buildFill(), Grid: kernel.Dim3{X: int(words / 256)},
			Block: kernel.Dim3{X: 256}, Params: []uint64{base, words}})
	}
	for _, c := range []struct{ regs, block, shared, blocks int }{{160, 128, 8, 24}, {96, 80, 4, 30}} {
		d.MustLaunch(&kernel.Launch{Program: buildDirty(c.regs, c.block, c.shared),
			Grid: kernel.Dim3{X: c.blocks}, Block: kernel.Dim3{X: c.block}, Params: []uint64{base}})
	}
	for off := int64(kernel.ParamSpace); off < int64(d.Const.Size()); off += 8 {
		d.Const.Write(off, 0xC0FFEE0DDF00D, 8)
	}
	calls, events, lines := chk.calls, tr.Len(), logged.Len()
	if calls == 0 || events == 0 || lines == 0 {
		t.Fatal("the dirtying launches reached no checker, tracer or logger")
	}

	d.Reset()
	fresh := NewDevice(spec)
	if d.LastLaunchTicks() != 0 || isReference(t, d) {
		t.Errorf("reset device: last launch ticks %d, reference %v", d.LastLaunchTicks(), d.reference)
	}
	if diff := deviceFieldsDiffering(d, fresh); len(diff) > 0 {
		t.Errorf("a reset device differs from a new one in %v", diff)
	}

	got := probe(t, d)
	for i, v := range got.out {
		if v != 0 {
			t.Fatalf("probe word %d read %#x on the reset device, want 0", i, v)
		}
	}
	if !reflect.DeepEqual(got.runs, want.runs) {
		for i := range got.runs {
			if !reflect.DeepEqual(got.runs[i], want.runs[i]) {
				t.Errorf("probe launch %d: reset device %+v\nnew device %+v", i, *got.runs[i], *want.runs[i])
			}
		}
	}
	for _, c := range []struct {
		what      string
		got, want any
	}{
		{"loop ticks", got.ticks, want.ticks},
		{"probe output", got.out, want.out},
		{"Storage.HashAllocated", got.memHash, want.memHash},
		{"Const.Hash", got.constHash, want.constHash},
		{"simulated-time trace events", got.simEvents, want.simEvents},
	} {
		if !reflect.DeepEqual(c.got, c.want) {
			t.Errorf("%s: reset device %v, new device %v", c.what, c.got, c.want)
		}
	}
	if !reflect.DeepEqual(got.mem, want.mem) {
		t.Error("the probes left the reset device's L2 slices or DRAM channels in another state than the new device's")
	}
	if chk.calls != calls || tr.Len() != events || logged.Len() != lines {
		t.Errorf("the reset device still reports to what was attached before: checker calls %d -> %d, trace events %d -> %d, log bytes %d -> %d",
			calls, chk.calls, events, tr.Len(), lines, logged.Len())
	}
}

// deviceFieldsDiffering names the fields of a and b that are not deeply
// equal, leaving out the parts Reset keeps on purpose or that other checks
// cover: the SMs (TestResetMatchesNew in internal/sm), the storage's backing
// (TestStorageResetReadsAsNew in internal/mem) and the per-launch scratch
// every launch prologue rewrites (traceBase: every traced one).
func deviceFieldsDiffering(a, b *Device) []string {
	skip := map[string]bool{"SMs": true, "Storage": true, "traceBase": true, "launchRejected": true}
	va, vb := reflect.ValueOf(a).Elem(), reflect.ValueOf(b).Elem()
	var diff []string
	for i := 0; i < va.NumField(); i++ {
		name := va.Type().Field(i).Name
		if skip[name] {
			continue
		}
		fa := reflect.NewAt(va.Field(i).Type(), unsafe.Pointer(va.Field(i).UnsafeAddr())).Elem()
		fb := reflect.NewAt(vb.Field(i).Type(), unsafe.Pointer(vb.Field(i).UnsafeAddr())).Elem()
		if !reflect.DeepEqual(fa.Interface(), fb.Interface()) {
			diff = append(diff, name)
		}
	}
	return diff
}

// TestDeviceDecodesEachProgramOnce: the SMs of a device share one decoded
// table per program — a launch whose blocks reach all four SMs decodes its
// program once, and a second program adds one table — and the device drops
// the tables where it resets its SMs (ResetSMs, Reset), so a long-lived
// device pins no program it ran before.
func TestDeviceDecodesEachProgramOnce(t *testing.T) {
	d := NewDevice(gpu.QuadroRTX4000().WithSMs(4))
	l := saxpyLaunch(d, 4096)
	if r := d.MustLaunch(l); r.SMsUsed != 4 || d.progs.Len() != 1 {
		t.Fatalf("a launch on %d SMs left %d decoded tables, want 1", r.SMsUsed, d.progs.Len())
	}
	d.MustLaunch(memBoundLaunch(d, 8, 0))
	d.MustLaunch(l)
	if d.progs.Len() != 2 {
		t.Errorf("two programs launched three times left %d decoded tables, want 2", d.progs.Len())
	}
	d.ResetSMs()
	if d.progs.Len() != 0 {
		t.Errorf("ResetSMs kept %d decoded tables", d.progs.Len())
	}
	d.MustLaunch(l)
	d.Reset()
	if d.progs.Len() != 0 {
		t.Errorf("Reset kept %d decoded tables", d.progs.Len())
	}
}
