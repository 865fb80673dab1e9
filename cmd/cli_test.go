// Package cmd_test drives the built command-line binaries: the flag set each
// accepts, the standard output of a table of command lines, and the daemon's
// mounted observability endpoints.
package cmd_test

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"os/exec"
	"path/filepath"
	"reflect"
	"regexp"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"

	"gputopdown"
)

var binaries = []string{"topdown", "gpuprof", "gpuprofd", "whatif", "figures", "goldengen"}

// binDir holds the binaries, built once for the whole package, from the
// packages in srcDirs.
var (
	binDir  string
	srcDirs []string
	opened  sync.Once
)

func TestMain(m *testing.M) {
	os.Exit(func() int {
		dir, err := os.MkdirTemp("", "gputopdown-cmd")
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 1
		}
		defer os.RemoveAll(dir)
		binDir = dir
		for _, b := range binaries {
			out, err := exec.Command("go", "build", "-o", filepath.Join(dir, b), "./"+b).CombinedOutput()
			if err != nil {
				fmt.Fprintf(os.Stderr, "go build ./cmd/%s: %v\n%s", b, err, out)
				return 1
			}
		}
		args := []string{"list", "-deps", "-f", "{{if not .Standard}}{{.Dir}}{{end}}"}
		for _, b := range binaries {
			args = append(args, "./"+b)
		}
		out, err := exec.Command("go", args...).Output()
		if err != nil {
			fmt.Fprintf(os.Stderr, "go list: %v\n", err)
			return 1
		}
		srcDirs = strings.Fields(string(out))
		return m.Run()
	}())
}

// bin returns the path of a built binary. Its first call opens the
// directory of every package the binaries are built from: the go test cache
// keys a cached result on the files and directories the tests opened (a
// directory by the size and time of each file in it), so an edit to a
// command or to any package it imports reruns these tests instead of
// replaying a result its binaries no longer produce.
func bin(t *testing.T, name string) string {
	t.Helper()
	opened.Do(func() {
		for _, d := range srcDirs {
			if f, err := os.Open(d); err == nil {
				f.Close()
			}
		}
	})
	return filepath.Join(binDir, name)
}

// Defaults as `-h` prints them; a flag whose default is the zero value of its
// type prints none and maps to "".
var (
	deviceFlags     = map[string]string{"gpu": `"rtx4000"`, "sms": ""}
	workloadFlags   = map[string]string{"suite": `"rodinia"`, "app": ""}
	collectionFlags = map[string]string{"level": "3", "raw": "", "hwpm": "", "replay-cache": "", "checks": ""}
	obsFlags        = map[string]string{
		"trace-out": "", "metrics-out": "", "trace-blocks": "", "serve": "", "flame-out": "",
		"log-level": "", "log-format": `"text"`, "overhead": "",
	}
)

func union(sets ...map[string]string) map[string]string {
	out := map[string]string{}
	for _, s := range sets {
		for k, v := range s {
			out[k] = v
		}
	}
	return out
}

func without(set map[string]string, names ...string) map[string]string {
	out := union(set)
	for _, n := range names {
		delete(out, n)
	}
	return out
}

// flagSurface is the record of what every binary accepts: the flag names and
// defaults at 76bc239, before the shared flags moved to internal/cliflags,
// except that figures reads the golden corpus (-dir) instead of profiling
// (-sms) and goldengen has no -workers (it fans out through ProfileApps).
var flagSurface = map[string]map[string]string{
	"topdown": union(deviceFlags, workloadFlags, collectionFlags, obsFlags, map[string]string{
		"per-kernel": "", "format": `"text"`, "dynamic": "", "autotune": "", "compare": "", "list": "",
		"all": "", "remote": "", "remote-timeout": "",
	}),
	"gpuprof": union(deviceFlags, workloadFlags, without(collectionFlags, "level", "raw"), obsFlags,
		map[string]string{"metrics": "", "list-metrics": ""}),
	"gpuprofd": {
		"addr": `":8791"`, "workers": "2", "queue": "64", "gpu": `"rtx4000"`, "timeout": "",
		"drain-timeout": "2m0s", "log-level": `"info"`, "log-format": `"text"`,
	},
	"whatif":    union(deviceFlags, workloadFlags, map[string]string{"level": "3", "param": "", "values": ""}),
	"figures":   {"fig": `"all"`, "dir": `"internal/check/testdata/golden"`, "format": `"table"`, "out": ""},
	"goldengen": {"dir": `"internal/check/testdata/golden"`},
}

var (
	flagLine    = regexp.MustCompile(`^  -(\S+)`)
	defaultNote = regexp.MustCompile(`\(default (.*)\)$`)
)

// TestFlagSurface asserts the exact flag set and defaults of every binary.
func TestFlagSurface(t *testing.T) {
	for _, b := range binaries {
		t.Run(b, func(t *testing.T) {
			out, err := exec.Command(bin(t, b), "-h").CombinedOutput()
			if err != nil {
				t.Fatalf("-h: %v\n%s", err, out)
			}
			got := map[string]string{}
			name := ""
			for _, line := range strings.Split(string(out), "\n") {
				if m := flagLine.FindStringSubmatch(line); m != nil {
					name = m[1]
					got[name] = ""
				} else if m := defaultNote.FindStringSubmatch(line); m != nil && name != "" {
					got[name] = m[1]
				}
			}
			if want := flagSurface[b]; !reflect.DeepEqual(got, want) {
				for n, d := range want {
					if gd, ok := got[n]; !ok {
						t.Errorf("flag -%s disappeared", n)
					} else if gd != d {
						t.Errorf("flag -%s default = %s, want %s", n, gd, d)
					}
				}
				for n := range got {
					if _, ok := want[n]; !ok {
						t.Errorf("flag -%s appeared", n)
					}
				}
			}
		})
	}
}

// TestCLISmoke runs each command line, on a 4-SM device where it profiles,
// and compares standard output with what the binaries of 76bc239 printed
// (testdata/; figures_table9.txt is the full devices' table since figures
// lost -sms; whatif_myocyte_imcmissextra.txt postdates them, as whatif
// reached no latency then), so moving the wiring behind the commands cannot
// move what they print. The csv and -compare lines were recorded before the
// renderings came to walk the Top-Down node table, and the last three lines
// after, since they print "-" for a component their analysis level does not
// compute where the older binaries printed 0.0%. Lines carrying wall= hold
// host time and are dropped on both sides.
func TestCLISmoke(t *testing.T) {
	cases := []struct{ golden, cmdline string }{
		{"topdown_bfs_perkernel", "topdown -sms 4 -suite rodinia -app bfs -per-kernel"},
		{"topdown_gemm_json", "topdown -sms 4 -gpu gtx1070 -suite altis -app gemm -level 2 -format json"},
		{"topdown_autotune_cache", "topdown -sms 4 -autotune -replay-cache"},
		{"topdown_gemm_csv", "topdown -sms 4 -suite altis -app gemm -format csv"},
		{"topdown_bfs_compare", "topdown -sms 4 -suite rodinia -app bfs -compare"},
		{"gpuprof_list_metrics", "gpuprof -sms 4 -list-metrics -gpu gtx1070"},
		{"gpuprof_bfs_ipc", "gpuprof -sms 4 -gpu gtx1070 -suite rodinia -app bfs -metrics ipc,issued_ipc"},
		{"gpuprof_autotune_cache", "gpuprof -sms 4 -suite altis -app gemm_autotune -replay-cache -hwpm -checks -metrics smsp__inst_executed.avg.per_cycle_active"},
		{"whatif_myocyte_imcsize", "whatif -sms 4 -suite rodinia -app myocyte -param imcsize -values 2048,8192"},
		{"whatif_myocyte_imcmissextra", "whatif -sms 4 -suite rodinia -app myocyte -param IMCMissExtra -values 160,0"},
		{"figures_table9", "figures -dir ../internal/check/testdata/golden -fig table9"},
		{"whatif_myocyte_level1", "whatif -sms 4 -suite rodinia -app myocyte -level 1 -param IMCSize -values 2048"},
		{"whatif_myocyte_gtx1070", "whatif -sms 4 -gpu gtx1070 -suite rodinia -app myocyte -param IMCSize -values 2048"},
		{"topdown_bfs_level1_perkernel", "topdown -sms 4 -suite rodinia -app bfs -level 1 -per-kernel"},
	}
	for _, c := range cases {
		t.Run(c.golden, func(t *testing.T) {
			t.Parallel()
			args := strings.Fields(c.cmdline)
			cmd := exec.Command(bin(t, args[0]), args[1:]...)
			var stderr bytes.Buffer
			cmd.Stderr = &stderr
			out, err := cmd.Output()
			if err != nil {
				t.Fatalf("%s: %v\n%s", c.cmdline, err, stderr.String())
			}
			want, err := os.ReadFile(filepath.Join("testdata", c.golden+".txt"))
			if err != nil {
				t.Fatal(err)
			}
			if got, want := stripWall(out), stripWall(want); got != want {
				t.Errorf("%s: stdout differs from testdata/%s.txt\n--- got\n%s--- want\n%s", c.cmdline, c.golden, got, want)
			}
		})
	}
}

// TestCompareHonoursCollectionFlags: -compare builds both profilers from the
// same options as a single-GPU run, so -raw must move the Frontend row.
func TestCompareHonoursCollectionFlags(t *testing.T) {
	frontend := func(extra ...string) string {
		args := append(strings.Fields("-sms 4 -suite rodinia -app bfs -compare"), extra...)
		out, err := exec.Command(bin(t, "topdown"), args...).Output()
		if err != nil {
			t.Fatalf("topdown %v: %v", args, err)
		}
		for _, line := range strings.Split(string(out), "\n") {
			if strings.HasPrefix(line, "Frontend") {
				return line
			}
		}
		t.Fatalf("topdown %v: no Frontend row in\n%s", args, out)
		return ""
	}
	if plain, raw := frontend(), frontend("-raw"); plain == raw {
		t.Errorf("-compare -raw printed the same Frontend row as -compare: %q", plain)
	}
}

// TestRemoteRejectsUnsentFlags: a daemon job carries the device id, the
// workload and the collection mode, nothing else, so topdown -remote fails on
// any other flag before it connects instead of silently dropping it.
func TestRemoteRejectsUnsentFlags(t *testing.T) {
	cmd := exec.Command(bin(t, "topdown"), strings.Fields("-remote http://127.0.0.1:1 -sms 4 -app bfs")...)
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	if err := cmd.Run(); err == nil {
		t.Fatal("topdown -remote -sms 4 exited 0")
	}
	if msg := stderr.String(); !strings.Contains(msg, "-sms") || strings.Contains(msg, "remote profile:") {
		t.Errorf("stderr = %q, want a rejection of -sms before any connection", msg)
	}
}

// TestRemoteSendsTheJob: topdown -remote sends the job settings as the flags
// gave them and nothing else. Without -replay-cache the request has no
// replay_cache field, so the daemon's default stands; with it, true is sent.
func TestRemoteSendsTheJob(t *testing.T) {
	for _, c := range []struct{ args, want string }{
		{"-app bfs", `{"suite":"rodinia","app":"bfs","gpu":"rtx4000","level":3}`},
		{"-gpu gtx1070 -suite altis -app gups -level 0 -raw -hwpm -replay-cache -remote-timeout 2s",
			`{"suite":"altis","app":"gups","gpu":"gtx1070","mode":"hwpm","raw_equations":true,"replay_cache":true,"timeout_ms":2000}`},
	} {
		bodies := make(chan string, 1)
		daemon := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			body, _ := io.ReadAll(r.Body)
			bodies <- string(body)
			http.Error(w, `{"error":"recorded"}`, http.StatusBadRequest)
		}))
		args := append([]string{"-remote", daemon.URL}, strings.Fields(c.args)...)
		out, err := exec.Command(bin(t, "topdown"), args...).CombinedOutput()
		daemon.Close()
		if err == nil {
			t.Fatalf("topdown %s exited 0 on a 400", c.args)
		}
		select {
		case body := <-bodies:
			var got, want any
			if err := json.Unmarshal([]byte(body), &got); err != nil {
				t.Fatalf("%s: request body %q: %v", c.args, body, err)
			}
			json.Unmarshal([]byte(c.want), &want) //nolint:errcheck // a literal
			if !reflect.DeepEqual(got, want) {
				t.Errorf("%s: sent %s, want %s", c.args, body, c.want)
			}
		default:
			t.Errorf("%s: nothing submitted:\n%s", c.args, out)
		}
	}
}

func stripWall(b []byte) string {
	var keep []string
	for _, line := range strings.SplitAfter(string(b), "\n") {
		if !strings.Contains(line, "wall=") {
			keep = append(keep, line)
		}
	}
	return strings.Join(keep, "")
}

// TestDaemonBinary starts the real gpuprofd, runs one job through it and
// checks the observability endpoints it mounts: /metrics and /healthz are
// live, and /api/progress is no route at all (the registry is the live
// state). SIGTERM must drain and exit 0.
func TestDaemonBinary(t *testing.T) {
	cmd := exec.Command(bin(t, "gpuprofd"), "-addr", "127.0.0.1:0", "-workers", "1", "-log-level", "error")
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		t.Fatal(err)
	}
	cmd.Stderr = os.Stderr
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	defer cmd.Process.Kill() //nolint:errcheck // no-op after a clean exit
	lines := bufio.NewScanner(stdout)
	if !lines.Scan() {
		t.Fatal("gpuprofd printed nothing")
	}
	m := regexp.MustCompile(`^gpuprofd listening on (\S+) `).FindStringSubmatch(lines.Text())
	if m == nil {
		t.Fatalf("unexpected first line %q", lines.Text())
	}
	base := "http://" + m[1]

	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	rep, err := gputopdown.SubmitAndWait(ctx, base,
		&gputopdown.JobRequest{Suite: "rodinia", App: "myocyte", GPU: "gtx1070"}, 10*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Kernels) == 0 {
		t.Error("job report has no kernels")
	}
	for path, want := range map[string]int{"/api/progress": http.StatusNotFound, "/metrics": http.StatusOK, "/healthz": http.StatusOK} {
		resp, err := http.Get(base + path)
		if err != nil {
			t.Fatal(err)
		}
		body, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != want {
			t.Errorf("GET %s = %d, want %d", path, resp.StatusCode, want)
		}
		if path != "/metrics" {
			continue
		}
		// The job's profiler observed through the runner's base options.
		for _, series := range []string{"\nprofiler_passes_total ", "\nsim_launches_total ", "\nanalysis_total ",
			"\ngpuprofd_jobs_completed_total{state=\"succeeded\"} 1\n"} {
			if !strings.Contains(string(body), series) {
				t.Errorf("/metrics after one job lacks %q", strings.TrimSpace(series))
			}
		}
	}

	if err := cmd.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	for lines.Scan() {
	}
	if err := cmd.Wait(); err != nil {
		t.Errorf("gpuprofd after SIGTERM: %v", err)
	}
}
