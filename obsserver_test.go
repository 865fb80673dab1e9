package gputopdown_test

import (
	"bytes"
	"context"
	"flag"
	"io"
	"net"
	"net/http"
	"os"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"time"

	"gputopdown"
	"gputopdown/internal/cliflags"
)

// openFlags parses args into the shared flag set and opens the profiler the
// way topdown and gpuprof do.
func openFlags(t *testing.T, args ...string) (*cliflags.Flags, *gputopdown.Profiler, error) {
	t.Helper()
	f := cliflags.New("test")
	fs := flag.NewFlagSet("test", flag.ContinueOnError)
	fs.SetOutput(io.Discard)
	f.Register(fs, cliflags.Device, cliflags.Workload, cliflags.Collection, cliflags.Observability)
	if err := fs.Parse(args); err != nil {
		t.Fatal(err)
	}
	p, _, err := f.Open()
	return f, p, err
}

// settlesAt polls until the goroutine count is back to at most want.
func settlesAt(want int) (int, bool) {
	deadline := time.Now().Add(2 * time.Second)
	for {
		runtime.GC()
		n := runtime.NumGoroutine()
		if n <= want || time.Now().After(deadline) {
			return n, n <= want
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestObsServerEndToEnd is the acceptance check for the live observability
// service: under -serve, Open binds the listener, /metrics, /healthz and
// /trace answer over real TCP while (and after) profiling, /api/progress is
// no route, and Finish takes the listener and its goroutine down.
func TestObsServerEndToEnd(t *testing.T) {
	// No keep-alive, so the client leaves no goroutine behind to be counted.
	client := &http.Client{Transport: &http.Transport{DisableKeepAlives: true}}
	before := runtime.NumGoroutine()
	f, p, err := openFlags(t, "-sms", "2", "-app", "nw", "-serve", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := f.Serve
	if strings.HasSuffix(addr, ":0") {
		t.Fatalf("Open left -serve at %q, want the bound address", addr)
	}

	app, err := f.SelectedApp()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p.ProfileApp(context.Background(), app); err != nil {
		t.Fatal(err)
	}

	fetch := func(path string) (int, string) {
		resp, err := client.Get("http://" + addr + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		defer resp.Body.Close()
		body, _ := io.ReadAll(resp.Body)
		return resp.StatusCode, string(body)
	}
	if code, body := fetch("/healthz"); code != http.StatusOK || !strings.Contains(body, "ok") {
		t.Errorf("/healthz: %d %q", code, body)
	}
	code, body := fetch("/metrics")
	if code != http.StatusOK {
		t.Errorf("/metrics: %d", code)
	}
	// The registry is the live scoreboard: what /api/progress used to count.
	for _, metric := range []string{"profiler_replay_overhead_ratio", "profiler_passes_total", "profiler_kernels_profiled_total"} {
		if !strings.Contains(body, metric) {
			t.Errorf("/metrics missing %s", metric)
		}
	}
	if code, body := fetch("/trace"); code != http.StatusOK || !strings.Contains(body, `"traceEvents"`) {
		t.Errorf("/trace: %d, not trace-event JSON", code)
	}
	if code, _ := fetch("/api/progress"); code != http.StatusNotFound {
		t.Errorf("/api/progress: %d, want 404", code)
	}

	if err := f.Finish(p); err != nil {
		t.Fatalf("Finish: %v", err)
	}
	if c, err := net.DialTimeout("tcp", addr, time.Second); err == nil {
		c.Close()
		t.Error("listener still accepting after Finish")
	}
	if n, ok := settlesAt(before); !ok {
		t.Errorf("goroutines: %d before Open, %d after Finish", before, n)
	}
	if err := f.Finish(p); err != nil {
		t.Errorf("second Finish: %v, want nil", err)
	}
}

// TestObsServerBadAddr: an unbindable -serve address is Open's error, not a
// silent no-server run.
func TestObsServerBadAddr(t *testing.T) {
	if _, _, err := openFlags(t, "-serve", "256.0.0.1:99999"); err == nil {
		t.Error("Open with an unbindable -serve address succeeded")
	}
}

// TestNewProfilerIsPure: building a profiler — with every option there is —
// starts no goroutine and opens no listener, so one []Option can build two.
func TestNewProfilerIsPure(t *testing.T) {
	logger, err := gputopdown.NewLogger(io.Discard, "debug", "json")
	if err != nil {
		t.Fatal(err)
	}
	on := true
	opts, err := gputopdown.JobOptions(&gputopdown.JobRequest{
		Level: 2, Mode: "hwpm", RawEquations: true, SampleEvery: 2, ReplayCache: &on})
	if err != nil {
		t.Fatal(err)
	}
	opts = append(opts, gputopdown.WithChecks(true),
		gputopdown.WithObserver(gputopdown.NewTracer(), gputopdown.NewMetricsRegistry()),
		gputopdown.WithLogger(logger), gputopdown.WithReplayWorkers(2))
	// This process's open sockets (a listener is one); Linux only.
	sockets := func() int {
		fds, err := os.ReadDir("/proc/self/fd")
		if err != nil {
			t.Skipf("cannot list open descriptors: %v", err)
		}
		n := 0
		for _, fd := range fds {
			if link, _ := os.Readlink("/proc/self/fd/" + fd.Name()); strings.HasPrefix(link, "socket:") {
				n++
			}
		}
		return n
	}
	goroutines, open := runtime.NumGoroutine(), sockets()
	spec := gputopdown.QuadroRTX4000().WithSMs(2)
	a, b := gputopdown.NewProfiler(spec, opts...), gputopdown.NewProfiler(spec, opts...)
	if a == b || a.Level() != 2 || b.Level() != 2 {
		t.Errorf("one option slice built %p (level %d) and %p (level %d)", a, a.Level(), b, b.Level())
	}
	if n := runtime.NumGoroutine(); n > goroutines {
		t.Errorf("goroutines: %d before, %d after two constructors", goroutines, n)
	}
	if n := sockets(); n > open {
		t.Errorf("open sockets: %d before, %d after two constructors", open, n)
	}
}

// TestObservabilityResultsBitIdentical: the full observability stack (debug
// logging, tracer + registry) must not perturb profiling results — AppResult
// equality bit for bit against a bare profiler.
func TestObservabilityResultsBitIdentical(t *testing.T) {
	spec, _ := gputopdown.LookupGPU("gtx1070")
	app, ok := gputopdown.LookupApp("rodinia", "hotspot")
	if !ok {
		t.Fatal("unknown app rodinia/hotspot")
	}
	bare := gputopdown.NewProfiler(spec.WithSMs(2), gputopdown.WithLevel(3))
	want, err := bare.ProfileApp(context.Background(), app)
	if err != nil {
		t.Fatal(err)
	}

	logger, err := gputopdown.NewLogger(io.Discard, "debug", "text")
	if err != nil {
		t.Fatal(err)
	}
	opts, err := gputopdown.JobOptions(&gputopdown.JobRequest{Level: 3})
	if err != nil {
		t.Fatal(err)
	}
	observed := gputopdown.NewProfiler(spec.WithSMs(2), append(opts,
		gputopdown.WithObserver(gputopdown.NewTracer(), gputopdown.NewMetricsRegistry()),
		gputopdown.WithLogger(logger))...)
	got, err := observed.ProfileApp(context.Background(), app)
	if err != nil {
		t.Fatal(err)
	}
	want.WallSeconds, got.WallSeconds = 0, 0
	if !reflect.DeepEqual(want, got) {
		t.Error("profiling under full observability diverged from the bare run")
	}
}

// TestFlameExport checks the Top-Down folded export: stacks rooted at the
// device, level-3 stall-reason leaves, parseable "<frames> <int>" lines, and
// nothing at all from an accumulator no result was folded into.
func TestFlameExport(t *testing.T) {
	spec, _ := gputopdown.LookupGPU("rtx4000")
	p := gputopdown.NewProfiler(spec.WithSMs(2), gputopdown.WithLevel(3))
	app, ok := gputopdown.LookupApp("altis", "gemm")
	if !ok {
		t.Fatal("unknown app altis/gemm")
	}
	res, err := p.ProfileApp(context.Background(), app)
	if err != nil {
		t.Fatal(err)
	}
	f := gputopdown.NewFlame()
	gputopdown.AddFlame(f, res)
	var buf bytes.Buffer
	if err := f.WriteFolded(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, ";Retire ") {
		t.Errorf("no Retire leaf in folded output:\n%s", out)
	}
	if !strings.Contains(out, ";Backend;Memory;") {
		t.Errorf("no level-3 Backend;Memory stall leaves in folded output:\n%s", out)
	}
	// Frames are sanitized for the folded format (' ' → '_'), so build the
	// expected root the same way.
	root := strings.ReplaceAll(res.GPU, " ", "_") + ";" +
		strings.ReplaceAll(res.Suite+"/"+res.App, " ", "_") + ";"
	for _, line := range strings.Split(strings.TrimSuffix(out, "\n"), "\n") {
		fields := strings.Split(line, " ")
		if len(fields) != 2 {
			t.Fatalf("malformed folded line %q", line)
		}
		if !strings.HasPrefix(fields[0], root) {
			t.Errorf("stack not rooted at device;app: %q", line)
		}
		for _, r := range fields[1] {
			if r < '0' || r > '9' {
				t.Errorf("non-integer weight in %q", line)
			}
		}
	}

	empty := gputopdown.NewFlame()
	gputopdown.AddFlame(empty, nil)
	if n := empty.Len(); n != 0 {
		t.Errorf("flame with no results holds %d stacks, want 0", n)
	}
}
