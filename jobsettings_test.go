package gputopdown_test

import (
	"bytes"
	"context"
	"strings"
	"testing"

	"gputopdown"
	"gputopdown/internal/check"
)

// TestFrontDoorsAgree: the CLIs' flags and a daemon job describe a profile
// as the same JobRequest, so one set of settings profiled through
// internal/cliflags and through the JobRunner gives byte-identical canonical
// reports. Each setting but the replay cache, which only memoizes, must
// also move the report, or the comparison would not show that it arrived.
func TestFrontDoorsAgree(t *testing.T) {
	on := true
	cases := []struct {
		flags string
		job   gputopdown.JobRequest
		moves bool // the report differs from the default settings'
	}{
		{"", gputopdown.JobRequest{}, false},
		{"-level 2", gputopdown.JobRequest{Level: 2}, true},
		{"-hwpm", gputopdown.JobRequest{Mode: "hwpm"}, true},
		{"-raw", gputopdown.JobRequest{RawEquations: true}, true},
		{"-replay-cache", gputopdown.JobRequest{ReplayCache: &on}, false},
	}
	var plain []byte
	ctx := context.Background()
	runner := gputopdown.NewJobRunner("rtx4000")
	for _, c := range cases {
		f, p, err := openFlags(t, append(strings.Fields(c.flags), "-gpu", "rtx4000", "-suite", "rodinia", "-app", "myocyte")...)
		if err != nil {
			t.Fatal(err)
		}
		app, err := f.SelectedApp()
		if err != nil {
			t.Fatal(err)
		}
		res, err := p.ProfileApp(ctx, app)
		if err != nil {
			t.Fatalf("flags %q: %v", c.flags, err)
		}
		cli, err := check.ReportJSON(res.Report())
		if err != nil {
			t.Fatal(err)
		}
		c.job.Suite, c.job.App = "rodinia", "myocyte"
		rep, err := runner.Run(ctx, &c.job)
		if err != nil {
			t.Fatalf("job %+v: %v", c.job, err)
		}
		job, err := check.ReportJSON(rep)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(cli, job) {
			t.Errorf("flags %q and job %+v disagree:\n%s", c.flags, c.job, check.DiffJSON(cli, job))
		}
		if plain == nil {
			plain = cli
		} else if moved := !bytes.Equal(cli, plain); moved != c.moves {
			t.Errorf("flags %q: report differs from the default's: %v, want %v", c.flags, moved, c.moves)
		}
	}
}
