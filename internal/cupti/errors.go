package cupti

import (
	"context"
	"errors"
	"fmt"

	"gputopdown/internal/kernel"
	"gputopdown/internal/sim"
)

// ErrKernelPanic marks a kernel invocation whose simulation panicked (wild
// memory access, unhandled opcode, resource-accounting bug). The panic is
// confined to the one invocation: the device is reset to idle and the
// application's remaining kernels keep profiling. Test with
// errors.Is(err, ErrKernelPanic); the enclosing *KernelError names the
// kernel and pass.
var ErrKernelPanic = errors.New("kernel panicked")

// safeLaunch runs one launch under ctx with per-kernel panic isolation: a
// panic anywhere inside the simulator is recovered, the device's SMs are
// reset to idle (global/constant memory keep the panicked kernel's partial
// writes — deterministically, as the panic point is reproducible), and the
// failure is reported as an error wrapping ErrKernelPanic.
func safeLaunch(ctx context.Context, dev *sim.Device, l *kernel.Launch) (res *sim.RunResult, err error) {
	defer func() {
		if r := recover(); r != nil {
			dev.ResetSMs()
			err = fmt.Errorf("%w: %v", ErrKernelPanic, r)
		}
	}()
	return dev.LaunchCtx(ctx, l)
}

// KernelError is the structured failure of one kernel invocation under
// profiling: which kernel, which replay pass, and the underlying cause. It is
// re-exported by the root package so callers can errors.As on it regardless
// of how many wrapping layers (workloads, profiler) the error crossed.
type KernelError struct {
	// Kernel is the failing kernel's name.
	Kernel string
	// Pass is the replay pass index (0-based) that failed. It is -1 when the
	// failure was not tied to a specific pass (e.g. a skipped-sample native
	// run under the §VII sampling mitigation).
	Pass int
	// Err is the underlying cause.
	Err error
}

// Error implements error, keeping the historical "cupti: pass i of k" shape.
func (e *KernelError) Error() string {
	if e.Pass < 0 {
		return fmt.Sprintf("cupti: kernel %s: %v", e.Kernel, e.Err)
	}
	return fmt.Sprintf("cupti: pass %d of %s: %v", e.Pass, e.Kernel, e.Err)
}

// Unwrap exposes the cause to errors.Is / errors.As.
func (e *KernelError) Unwrap() error { return e.Err }
