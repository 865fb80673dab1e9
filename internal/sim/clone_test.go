package sim

import (
	"reflect"
	"testing"

	"gputopdown/internal/kernel"
)

// TestCloneIsIndependent: mutating a clone's memory or running kernels on it
// must not disturb the original device, and vice versa.
func TestCloneIsIndependent(t *testing.T) {
	d := NewDevice(testSpec())
	const n = 256
	buf := d.Alloc(n * 4)
	vals := make([]uint32, n)
	for i := range vals {
		vals[i] = uint32(i)
	}
	d.Storage.WriteU32Slice(buf, vals)
	d.Const.Write(kernel.ParamSpace, 0xDEAD, 8)

	c := d.Clone()
	if got := c.Storage.ReadU32Slice(buf, n); !reflect.DeepEqual(got, vals) {
		t.Fatal("clone does not see the original's memory contents")
	}
	if got := c.Const.Read(kernel.ParamSpace, 8); got != 0xDEAD {
		t.Fatalf("clone constant bank = %#x, want 0xDEAD", got)
	}

	// Mutate the clone; the original must be untouched.
	c.Storage.WriteU32Slice(buf, make([]uint32, n))
	c.Const.Write(kernel.ParamSpace, 0xBEEF, 8)
	if got := d.Storage.ReadU32Slice(buf, n); !reflect.DeepEqual(got, vals) {
		t.Fatal("mutating the clone changed the original's memory")
	}
	if got := d.Const.Read(kernel.ParamSpace, 8); got != 0xDEAD {
		t.Fatal("mutating the clone changed the original's constant bank")
	}

	// And allocations diverge independently.
	a1 := d.Alloc(64)
	a2 := c.Alloc(128)
	if a1 != a2 {
		t.Fatalf("clone watermark diverged before independent allocs: %#x vs %#x", a1, a2)
	}
}

// TestCloneLaunchBitIdentical: the same launch from the same memory state
// must produce identical cycles and counters on the original and the clone.
func TestCloneLaunchBitIdentical(t *testing.T) {
	d := NewDevice(testSpec())
	const n = 1000
	xs := d.Alloc(n * 4)
	ys := d.Alloc(n * 4)
	xh := make([]float32, n)
	yh := make([]float32, n)
	for i := range xh {
		xh[i] = float32(i)
		yh[i] = float32(2 * i)
	}
	d.Storage.WriteF32Slice(xs, xh)
	d.Storage.WriteF32Slice(ys, yh)
	l := &kernel.Launch{
		Program: buildSaxpy(),
		Grid:    kernel.Dim3{X: (n + 127) / 128},
		Block:   kernel.Dim3{X: 128},
		Params:  []uint64{xs, ys, n, uint64(f32b(3.0))},
	}

	c := d.Clone()
	r1 := d.MustLaunch(l)
	r2 := c.MustLaunch(l)
	if r1.Cycles != r2.Cycles || r1.SMsUsed != r2.SMsUsed {
		t.Fatalf("clone launch diverged: %d cyc/%d SMs vs %d cyc/%d SMs",
			r1.Cycles, r1.SMsUsed, r2.Cycles, r2.SMsUsed)
	}
	if !reflect.DeepEqual(r1.Counters, r2.Counters) {
		t.Fatal("clone launch produced different counters")
	}
	if !reflect.DeepEqual(d.Storage.ReadF32Slice(ys, n), c.Storage.ReadF32Slice(ys, n)) {
		t.Fatal("clone launch produced different memory effects")
	}
}
