// Names kept only because bench/ (its own module, frozen by BENCHMARK.json)
// compiles against them; nothing else may call them. The PR that next edits
// bench/ deletes this file and the tests of these names.

package sim

import "fmt"

// Clone builds an independent device with the same spec and byte-identical
// global and constant memory, but fresh (idle, cold-cache, cycle-zero) SMs,
// L2 and DRAM, in the device's mode (SetReference). A launch on a clone after
// a cache flush is bit-identical to a launch on the original after a
// Storage.Restore and a flush. Clone requires the device to be idle and does
// not carry over observers; attach them explicitly if wanted.
func (d *Device) Clone() *Device {
	for i, s := range d.SMs {
		if s.Busy() {
			panic(fmt.Sprintf("sim: Clone of device with busy SM %d", i))
		}
	}
	c := assemble(d.Spec, d.Storage.Clone(), d.Const.Clone())
	c.traceEvery = d.traceEvery
	c.SetReference(d.reference)
	return c
}
