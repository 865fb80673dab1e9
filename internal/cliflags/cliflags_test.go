package cliflags

import (
	"context"
	"flag"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"gputopdown"
)

func parse(t *testing.T, f *Flags, names []string, args ...string) {
	t.Helper()
	fs := flag.NewFlagSet("test", flag.ContinueOnError)
	fs.SetOutput(io.Discard)
	f.Register(fs, names...)
	if err := fs.Parse(args); err != nil {
		t.Fatal(err)
	}
}

func TestRegisterSelectsGroupsAndSingleFlags(t *testing.T) {
	f := New("test")
	f.LogLevel = "info" // a per-binary default
	fs := flag.NewFlagSet("test", flag.ContinueOnError)
	f.Register(fs, Device, "level", "log-level")
	var got []string
	fs.VisitAll(func(fl *flag.Flag) { got = append(got, fl.Name+"="+fl.DefValue) })
	if want := "gpu=rtx4000 level=3 log-level=info sms=0"; strings.Join(got, " ") != want {
		t.Errorf("registered %v, want %s", got, want)
	}
	defer func() {
		if recover() == nil {
			t.Error("Register accepted a name that is neither flag nor group")
		}
	}()
	f.Register(fs, "no-such-flag")
}

func TestEveryFlagDeclaredOnce(t *testing.T) {
	seen := map[string]bool{}
	for _, d := range decls {
		if seen[d.name] {
			t.Errorf("flag -%s declared twice", d.name)
		}
		seen[d.name] = true
	}
}

// TestOptionsAndFinish: the flags become a working profiler, and Finish
// writes exactly the files that were asked for.
func TestOptionsAndFinish(t *testing.T) {
	dir := t.TempDir()
	trace, prom, flame := filepath.Join(dir, "t.json"), filepath.Join(dir, "m.prom"), filepath.Join(dir, "f.folded")
	f := New("test")
	parse(t, f, []string{Device, Workload, Collection, Observability},
		"-gpu", "gtx1070", "-sms", "4", "-app", "bfs", "-level", "2", "-checks", "-replay-cache",
		"-trace-out", trace, "-metrics-out", prom, "-flame-out", flame)
	spec, opts, err := f.Options()
	if err != nil {
		t.Fatal(err)
	}
	if spec.SMs != 4 || !strings.Contains(spec.Name, "1070") {
		t.Errorf("spec = %s with %d SMs, want a 4-SM GTX 1070", spec.Name, spec.SMs)
	}
	app, err := f.SelectedApp()
	if err != nil {
		t.Fatal(err)
	}
	p := gputopdown.NewProfiler(spec, opts...)
	res, err := p.ProfileApp(context.Background(), app)
	if err != nil {
		t.Fatal(err)
	}
	if res.Aggregate.Level != 2 {
		t.Errorf("analysis level %d, want 2 from -level", res.Aggregate.Level)
	}

	if err := f.Finish(p); err == nil || !strings.Contains(err.Error(), "no stacks") {
		t.Errorf("Finish with an empty flame = %v, want the no-stacks error", err)
	}
	gputopdown.AddFlame(f.Flame, res)
	if err := f.Finish(p); err != nil {
		t.Fatal(err)
	}
	for _, path := range []string{trace, prom, flame} {
		if st, err := os.Stat(path); err != nil || st.Size() == 0 {
			t.Errorf("%s not written (%v)", filepath.Base(path), err)
		}
	}
}

func TestOptionsRejectsUnknownGPUAndLogLevel(t *testing.T) {
	f := New("test")
	f.Job.GPU = "voodoo2"
	if _, _, err := f.Options(); err == nil || !strings.Contains(err.Error(), "gtx1070 or rtx4000") {
		t.Errorf("unknown GPU: err = %v, want the list of known ids", err)
	}
	f = New("test")
	f.LogLevel = "chatty"
	if _, _, err := f.Options(); err == nil {
		t.Error("unknown log level accepted")
	}
}

// TestJobSettings: the job flags land in Flags.Job as a daemon job spells
// them. -replay-cache stays unset unless given, and -level 0 means the
// default level, as level 0 does in a job request, while a level past 3 is
// rejected by the job request's own check.
func TestJobSettings(t *testing.T) {
	f := New("test")
	parse(t, f, []string{Device, Workload, Collection}, "-gpu", "gtx1070", "-app", "bfs", "-level", "2", "-raw", "-hwpm")
	off := false
	want := gputopdown.JobRequest{GPU: "gtx1070", Suite: "rodinia", App: "bfs", Level: 2, Mode: "hwpm", RawEquations: true}
	if !reflect.DeepEqual(f.Job, want) {
		t.Errorf("Job = %+v, want %+v", f.Job, want)
	}
	for args, cache := range map[string]*bool{"": nil, "-replay-cache=false": &off, "-hwpm=false": nil} {
		f = New("test")
		parse(t, f, []string{Collection}, strings.Fields(args)...)
		if !reflect.DeepEqual(f.Job.ReplayCache, cache) || f.Job.Mode != "" {
			t.Errorf("%q: ReplayCache %v, Mode %q; want %v and none", args, f.Job.ReplayCache, f.Job.Mode, cache)
		}
	}

	f = New("test")
	parse(t, f, []string{Device, Collection}, "-sms", "4", "-level", "0")
	spec, opts, err := f.Options()
	if err != nil {
		t.Fatalf("-level 0: %v", err)
	}
	if got := gputopdown.NewProfiler(spec, opts...).Level(); got != 3 {
		t.Errorf("-level 0 built a level-%d profiler, want the default 3", got)
	}
	f = New("test")
	parse(t, f, []string{Collection}, "-level", "4")
	if _, _, err := f.Options(); err == nil || !strings.Contains(err.Error(), "level 4 outside 0..3") {
		t.Errorf("-level 4: err = %v, want the job request's range error", err)
	}
}

// TestJobFlag: the flags a daemon job carries are the job rows of decls.
func TestJobFlag(t *testing.T) {
	var job []string
	for _, d := range decls {
		if JobFlag(d.name) {
			job = append(job, d.name)
		}
	}
	if got, want := strings.Join(job, " "), "gpu suite app level raw hwpm replay-cache"; got != want {
		t.Errorf("job flags %q, want %q", got, want)
	}
}
