package serve

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"net/http/httptest"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"time"

	"gputopdown/internal/obs"
)

// largeReport is testReport with n kernels: about 60 bytes of body each, so
// 300 make a report of a real app's size (10–24 KB), far past the 2 KiB a
// handler may write before net/http would otherwise switch to chunking.
func largeReport(req *JobRequest, n int) *Report {
	rep := testReport(req)
	rep.Kernels = make([]KernelReport, n)
	for i := range rep.Kernels {
		rep.Kernels[i] = KernelReport{Kernel: fmt.Sprintf("kernel_%d", i), Invocation: i, Cycles: uint64(1000 + i)}
	}
	return rep
}

// TestClientKeepsConnection: a client that submits jobs, waits for them and
// fetches their reports, one after another, dials the daemon once. Each
// body is read to its declared end, so net/http returns the connection to
// the client's pool instead of closing it; the server counts the
// connections it accepts on /metrics.
func TestClientKeepsConnection(t *testing.T) {
	reg := obs.NewRegistry()
	s := mustServer(t, Options{Registry: reg, Runner: func(ctx context.Context, req *JobRequest) (*Report, error) {
		return largeReport(req, 300), nil
	}})
	if err := s.Start("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	tr := &http.Transport{}
	defer tr.CloseIdleConnections()
	c := &Client{Base: "http://" + s.Addr(), HTTP: &http.Client{Transport: tr}}
	ctx := context.Background()

	const jobs = 20
	for i := 0; i < jobs; i++ {
		st, err := c.Submit(ctx, request())
		if err != nil {
			t.Fatal(err)
		}
		if _, err := c.Wait(ctx, st.ID, time.Millisecond); err != nil {
			t.Fatal(err)
		}
		rep, err := c.Report(ctx, st.ID)
		if err != nil {
			t.Fatal(err)
		}
		if len(rep.Kernels) != 300 {
			t.Fatalf("report of job %d has %d kernels, want 300", i, len(rep.Kernels))
		}
	}
	var prom bytes.Buffer
	if err := reg.WriteProm(&prom); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(prom.String(), "\ngpuprofd_http_connections_total 1\n") {
		t.Errorf("%d jobs through one client: want gpuprofd_http_connections_total 1 on /metrics, got\n%s", jobs, &prom)
	}
}

// TestResponsesAreFramed: every v1 response, errors included, is one
// compact JSON document and a newline, sent with a Content-Length equal to
// that body; a report encoding/json cannot encode is a 500 with an error
// body, not a 200 cut short.
func TestResponsesAreFramed(t *testing.T) {
	gate := make(chan struct{})
	defer close(gate)
	s := mustServer(t, Options{Workers: 1, QueueDepth: 1, Runner: func(ctx context.Context, req *JobRequest) (*Report, error) {
		switch req.App {
		case "nan":
			rep := testReport(req)
			rep.WallSeconds = math.NaN()
			return rep, nil
		case "block":
			<-gate
		}
		return largeReport(req, 300), nil
	}})
	h := httptest.NewServer(s.Handler())
	defer h.Close()

	// call sends one request and checks its response's framing; it returns
	// the body.
	call := func(method, path, body string, wantCode int) []byte {
		t.Helper()
		req, err := http.NewRequest(method, h.URL+path, strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		got, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatalf("%s %s: read body: %v", method, path, err)
		}
		if resp.StatusCode != wantCode {
			t.Errorf("%s %s: HTTP %d, want %d (%s)", method, path, resp.StatusCode, wantCode, got)
		}
		if resp.ContentLength != int64(len(got)) || len(resp.TransferEncoding) != 0 {
			t.Errorf("%s %s: Content-Length %d, transfer encoding %v, for a body of %d bytes",
				method, path, resp.ContentLength, resp.TransferEncoding, len(got))
		}
		if ct := resp.Header.Get("Content-Type"); ct != "application/json" {
			t.Errorf("%s %s: Content-Type %q", method, path, ct)
		}
		doc, ok := bytes.CutSuffix(got, []byte("\n"))
		var compact bytes.Buffer
		if !ok || json.Compact(&compact, doc) != nil || !bytes.Equal(compact.Bytes(), doc) {
			t.Errorf("%s %s: body is not one compact JSON document and a newline: %.200q", method, path, got)
		}
		return got
	}
	id := func(body []byte) string {
		t.Helper()
		var st JobStatus
		if err := json.Unmarshal(body, &st); err != nil || st.ID == "" {
			t.Fatalf("no job id in %q: %v", body, err)
		}
		return st.ID
	}

	done := id(call("POST", "/api/v1/jobs", `{"suite":"altis","app":"gups"}`, http.StatusAccepted))
	call("GET", "/api/v1/jobs/"+done+"?wait_ms=5000", "", http.StatusOK)
	call("GET", "/api/v1/jobs/"+done+"/report", "", http.StatusOK)
	call("GET", "/api/v1/jobs", "", http.StatusOK)
	call("DELETE", "/api/v1/jobs/"+done, "", http.StatusOK)

	nan := id(call("POST", "/api/v1/jobs", `{"suite":"altis","app":"nan"}`, http.StatusAccepted))
	call("GET", "/api/v1/jobs/"+nan+"?wait_ms=5000", "", http.StatusOK)
	var e struct {
		Error string `json:"error"`
	}
	body := call("GET", "/api/v1/jobs/"+nan+"/report", "", http.StatusInternalServerError)
	if json.Unmarshal(body, &e) != nil || !strings.Contains(e.Error, "NaN") {
		t.Errorf("report holding a NaN: body %q, want an error naming the NaN", body)
	}

	running := id(call("POST", "/api/v1/jobs", `{"suite":"altis","app":"block"}`, http.StatusAccepted))
	waitState(t, s, running, StateRunning)
	call("GET", "/api/v1/jobs/"+running+"/report", "", http.StatusConflict)
	call("POST", "/api/v1/jobs", `{"suite":"altis","app":"block"}`, http.StatusAccepted)
	call("POST", "/api/v1/jobs", `{"suite":"altis","app":"gups"}`, http.StatusServiceUnavailable)

	call("POST", "/api/v1/jobs", `{"suite":`, http.StatusBadRequest)
	call("GET", "/api/v1/jobs/"+running+"?wait_ms=-1", "", http.StatusBadRequest)
	call("POST", "/api/v1/jobs", `{"suite":"`+strings.Repeat("a", maxSubmitBytes)+`"}`, http.StatusRequestEntityTooLarge)
	call("GET", "/api/v1/jobs/job-999999", "", http.StatusNotFound)
	call("GET", "/api/v1/jobs/job-999999/report", "", http.StatusNotFound)
	call("DELETE", "/api/v1/jobs/job-999999", "", http.StatusNotFound)
}

// waitState polls the store until the job is in state want.
func waitState(t *testing.T, s *Server, id string, want JobState) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		st, err := s.store.Status(id)
		if err != nil {
			t.Fatal(err)
		}
		if st.State == want {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("job %s still %s after 5s, want %s", id, st.State, want)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestClientBoundsResponse: a body declared above the client's cap is
// refused before it is read, and a body streamed without end is cut at the
// cap; either is ErrResponseTooLarge, and the client allocates a small
// multiple of the cap at most.
func TestClientBoundsResponse(t *testing.T) {
	defer func(n int64) { maxResponseBytes = n }(maxResponseBytes)
	maxResponseBytes = 1 << 20

	for _, tc := range []struct {
		name    string
		handler http.HandlerFunc
	}{
		{"declared", func(w http.ResponseWriter, r *http.Request) {
			w.Header().Set("Content-Length", fmt.Sprint(maxResponseBytes+1))
			w.Write([]byte("{}")) //nolint:errcheck // the client hangs up
		}},
		{"endless", func(w http.ResponseWriter, r *http.Request) {
			chunk := bytes.Repeat([]byte(" "), 32<<10)
			w.Write([]byte("{")) //nolint:errcheck // the client hangs up
			for {
				if _, err := w.Write(chunk); err != nil {
					return
				}
				w.(http.Flusher).Flush()
			}
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			h := httptest.NewServer(tc.handler)
			defer h.Close()
			c := &Client{Base: h.URL}
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			_, err := c.Status(context.Background(), "job-000001")
			runtime.ReadMemStats(&after)
			if !errors.Is(err, ErrResponseTooLarge) {
				t.Fatalf("Status = %v, want ErrResponseTooLarge", err)
			}
			if n := after.TotalAlloc - before.TotalAlloc; n > 4*uint64(maxResponseBytes) {
				t.Errorf("reading a %s oversized body allocated %d bytes, above 4 × the %d-byte cap",
					tc.name, n, maxResponseBytes)
			}
		})
	}
}

// reportServer starts a listening server whose one job has succeeded with
// a report of about 6 MB: more than the loopback socket buffers hold, so a
// reader that stops reading stops the server's write. It returns the
// server, the job's id, the report and the goroutine count with the server
// idle and no connection open.
func reportServer(t *testing.T) (*Server, string, *Report, int) {
	t.Helper()
	want := largeReport(request(), 100_000)
	s := mustServer(t, Options{Runner: func(ctx context.Context, req *JobRequest) (*Report, error) {
		return want, nil
	}})
	if err := s.Start("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	st, err := s.Submit(request())
	if err != nil {
		t.Fatal(err)
	}
	waitTerminal(t, s, st.ID)
	return s, st.ID, want, runtime.NumGoroutine()
}

// rawReportRequest opens a connection and sends GET /report for id on it.
func rawReportRequest(t *testing.T, s *Server, id string) net.Conn {
	t.Helper()
	conn, err := net.Dial("tcp", s.Addr())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := fmt.Fprintf(conn, "GET /api/v1/jobs/%s/report HTTP/1.1\r\nHost: test\r\n\r\n", id); err != nil {
		t.Fatal(err)
	}
	return conn
}

// checkJobServes fetches the job's status and report through a fresh
// client, then closes the client's connections: the job must still be
// succeeded and its report whole.
func checkJobServes(t *testing.T, s *Server, id string, want *Report) {
	t.Helper()
	tr := &http.Transport{}
	defer tr.CloseIdleConnections()
	c := &Client{Base: "http://" + s.Addr(), HTTP: &http.Client{Transport: tr}}
	ctx := context.Background()
	if st, err := c.Status(ctx, id); err != nil || st.State != StateSucceeded {
		t.Errorf("status = %+v, %v; want succeeded", st, err)
	}
	rep, err := c.Report(ctx, id)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(rep, want) {
		t.Errorf("report of %d kernels, want the %d the job produced", len(rep.Kernels), len(want.Kernels))
	}
}

// waitGoroutines waits until the goroutine count is back to baseline.
func waitGoroutines(t *testing.T, baseline int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > baseline {
		if time.Now().After(deadline) {
			t.Fatalf("goroutines %d > %d with the server idle before: a report request leaked", runtime.NumGoroutine(), baseline)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// waitWriting waits until a report handler is blocked in its write.
func waitWriting(t *testing.T) {
	t.Helper()
	buf := make([]byte, 1<<20)
	for deadline := time.Now().Add(5 * time.Second); ; {
		if bytes.Contains(buf[:runtime.Stack(buf, true)], []byte("(*Server).handleReport")) {
			return
		}
		if time.Now().After(deadline) {
			t.Fatal("no report handler is writing after 5 s: the reader stalled no write")
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestReportSlowReader: a client that stops reading GET /report midway
// holds only its own connection. Another client gets the whole report
// meanwhile, the slow one gets all of it when it reads on, the job stays
// succeeded, and once both are gone the goroutine count is what it was
// before.
func TestReportSlowReader(t *testing.T) {
	s, id, want, baseline := reportServer(t)
	conn := rawReportRequest(t, s, id)
	defer conn.Close()
	resp, err := http.ReadResponse(bufio.NewReader(conn), nil)
	if err != nil {
		t.Fatal(err)
	}
	waitWriting(t)

	checkJobServes(t, s, id, want)

	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	var rep Report
	if int64(len(body)) != resp.ContentLength || json.Unmarshal(body, &rep) != nil || !reflect.DeepEqual(&rep, want) {
		t.Errorf("slow reader got %d of %d declared bytes, not the job's report", len(body), resp.ContentLength)
	}
	conn.Close()
	waitGoroutines(t, baseline)
}

// TestReportReaderDisconnects: a client that hangs up in the middle of a
// report leaves the job succeeded and its report whole for the next
// client, and the server's goroutine for it ends.
func TestReportReaderDisconnects(t *testing.T) {
	s, id, want, baseline := reportServer(t)
	conn := rawReportRequest(t, s, id)
	if _, err := io.ReadFull(conn, make([]byte, 4<<10)); err != nil {
		t.Fatal(err)
	}
	waitWriting(t)
	conn.Close()

	checkJobServes(t, s, id, want)
	waitGoroutines(t, baseline)
}
