package gputopdown

import (
	"errors"
	"fmt"

	"gputopdown/internal/cupti"
)

// Typed errors of the public API. Callers should test with errors.Is /
// errors.As rather than matching message strings; every constructor and
// Profile* method wraps these sentinels with contextual detail.
var (
	// ErrUnknownSuite reports a suite name that resolves to no applications.
	ErrUnknownSuite = errors.New("unknown benchmark suite")
	// ErrUnknownApp reports an application name absent from its suite.
	ErrUnknownApp = errors.New("unknown application")
	// ErrNoKernels reports an application run that launched no kernels, so
	// there is nothing to analyse.
	ErrNoKernels = errors.New("application launched no kernels")
)

// ErrKernelPanic marks a kernel invocation whose simulation panicked. The
// panic is isolated to that invocation: the device is reset and the rest of
// the application keeps profiling, with the failure recorded on
// AppResult.Failed (or returned, wrapped in a *KernelError, when every
// kernel fails). Test with errors.Is.
var ErrKernelPanic = cupti.ErrKernelPanic

// KernelError is the structured failure of one kernel invocation under
// profiling: which kernel, which replay pass (or -1 when the failure was not
// tied to a pass), and the underlying cause. Profile* methods wrap it, so
// errors.As recovers it through any number of layers:
//
//	var ke *gputopdown.KernelError
//	if errors.As(err, &ke) {
//	        log.Printf("kernel %s failed on pass %d: %v", ke.Kernel, ke.Pass, ke.Err)
//	}
type KernelError = cupti.KernelError

// GetApp resolves an application by suite and name, returning typed errors:
// ErrUnknownSuite when the suite has no applications at all, ErrUnknownApp
// when the suite exists but the name does not. LookupApp is the legacy
// boolean variant.
func GetApp(suite, name string) (*App, error) {
	if app, ok := LookupApp(suite, name); ok {
		return app, nil
	}
	if len(SuiteApps(suite)) == 0 {
		return nil, fmt.Errorf("gputopdown: suite %q: %w", suite, ErrUnknownSuite)
	}
	return nil, fmt.Errorf("gputopdown: app %s/%s: %w", suite, name, ErrUnknownApp)
}
