package kernel

// Program fingerprinting for the replay result cache (internal/cupti): two
// programs with equal fingerprints are treated as the same code. The hash is
// 64-bit FNV-1a over every semantic field of every instruction plus the
// static resource requirements, so it is stable across process runs and
// independent of pointer identity — rebuilding a kernel from the same builder
// source yields the same fingerprint.

const (
	fnvOffset = 14695981039346656037
	fnvPrime  = 1099511628211
)

// FNV is a 64-bit FNV-1a hash fed a byte at a time. It is the one such hash
// of the module: the replay cache's keys (a program and a launch here, a pass
// schedule in internal/pmu) and the apps' input seeds (internal/workloads).
// Start from NewFNV.
type FNV uint64

// NewFNV returns the hash of no bytes, the FNV-1a offset basis.
func NewFNV() FNV { return FNV(fnvOffset) }

// Mix folds in v as eight bytes, least significant first.
func (h *FNV) Mix(v uint64) {
	x := uint64(*h)
	for shift := 0; shift < 64; shift += 8 {
		x ^= (v >> shift) & 0xFF
		x *= fnvPrime
	}
	*h = FNV(x)
}

func (h *FNV) mixBool(b bool) {
	if b {
		h.Mix(1)
	} else {
		h.Mix(0)
	}
}

// MixString folds in the bytes of s.
func (h *FNV) MixString(s string) {
	x := uint64(*h)
	for i := 0; i < len(s); i++ {
		x ^= uint64(s[i])
		x *= fnvPrime
	}
	*h = FNV(x)
}

// Fingerprint returns a content hash of the program: name, resource
// requirements and the full instruction stream. It is what the replay cache
// keys kernel identity on.
func (p *Program) Fingerprint() uint64 {
	h := NewFNV()
	h.MixString(p.Name)
	h.Mix(uint64(p.NumRegs))
	h.Mix(uint64(p.SharedBytes))
	h.Mix(uint64(p.LocalBytes))
	h.Mix(uint64(len(p.Instrs)))
	for i := range p.Instrs {
		in := &p.Instrs[i]
		h.Mix(uint64(in.Op))
		h.Mix(uint64(in.Dst))
		for _, s := range in.Srcs {
			h.Mix(uint64(s))
		}
		h.Mix(uint64(in.Imm))
		h.Mix(uint64(in.Pred))
		h.mixBool(in.PredNeg)
		h.Mix(uint64(in.PDst))
		h.Mix(uint64(in.Cmp))
		h.Mix(uint64(in.Mufu))
		h.Mix(uint64(in.Atom))
		h.Mix(uint64(in.Size))
		h.Mix(uint64(in.Target))
		h.Mix(uint64(in.Recon))
	}
	return uint64(h)
}

// ConfigHash returns a content hash of the launch configuration — geometry,
// dynamic shared memory and parameter values — combined with the program
// fingerprint. Together with the device memory and constant-bank hashes it
// identifies a byte-identical kernel invocation.
func (l *Launch) ConfigHash() uint64 {
	h := NewFNV()
	h.Mix(l.Program.Fingerprint())
	g, b := l.Grid.Norm(), l.Block.Norm()
	h.Mix(uint64(g.X))
	h.Mix(uint64(g.Y))
	h.Mix(uint64(g.Z))
	h.Mix(uint64(b.X))
	h.Mix(uint64(b.Y))
	h.Mix(uint64(b.Z))
	h.Mix(uint64(l.DynamicSharedBytes))
	h.Mix(uint64(len(l.Params)))
	for _, p := range l.Params {
		h.Mix(p)
	}
	return uint64(h)
}
