package serve

import (
	"bufio"
	"io"
	"net"
	"net/http"
	"reflect"
	"testing"
	"time"
	_ "unsafe" // go:linkname
)

// The obs.Listener timeouts every gpuprofd listener serves with. They are
// obs's unexported constants; these tests shorten them before Start.
var (
	//go:linkname listenerIdleTimeout gputopdown/internal/obs.idleTimeout
	listenerIdleTimeout time.Duration
	//go:linkname listenerWriteTimeout gputopdown/internal/obs.writeTimeout
	listenerWriteTimeout time.Duration
)

// shorten sets *d to v until the test ends.
func shorten(t *testing.T, d *time.Duration, v time.Duration) {
	old := *d
	*d = v
	t.Cleanup(func() { *d = old })
}

// TestWriteTimeoutOutlastsStatusWait: a status request may be held for
// maxStatusWait before its answer is written, and the write timeout runs
// from its headers on, so it must be longer or a long wait_ms is cut off.
func TestWriteTimeoutOutlastsStatusWait(t *testing.T) {
	if listenerWriteTimeout <= maxStatusWait {
		t.Errorf("listener write timeout %v <= maxStatusWait %v: a held status request would be cut off", listenerWriteTimeout, maxStatusWait)
	}
}

// TestIdleConnectionClosed: a client that keeps its connection after an
// answer and sends nothing more is disconnected once the idle timeout
// passes.
func TestIdleConnectionClosed(t *testing.T) {
	shorten(t, &listenerIdleTimeout, 100*time.Millisecond)
	s := mustServer(t, Options{})
	if err := s.Start("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	conn, err := net.Dial("tcp", s.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if _, err := io.WriteString(conn, "GET /api/v1/jobs/job-1 HTTP/1.1\r\nHost: test\r\n\r\n"); err != nil {
		t.Fatal(err)
	}
	r := bufio.NewReader(conn)
	resp, err := http.ReadResponse(r, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := io.Copy(io.Discard, resp.Body); err != nil || resp.StatusCode != http.StatusNotFound || resp.Close {
		t.Fatalf("status of an unknown job: %d, close %v, body error %v; want a kept-alive 404", resp.StatusCode, resp.Close, err)
	}
	conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	if rest, err := io.ReadAll(r); err != nil || len(rest) > 0 {
		t.Errorf("idle kept-alive connection still open after 5 s (read %d bytes, %v)", len(rest), err)
	}
}

// TestReportStalledReaderTimesOut: a client that stops reading GET /report
// and never reads on is cut off once the write timeout passes. Its handler
// goroutine and connection are freed, so the goroutine count returns to
// what it was before with the stalled connection still open on the client's
// side, and the job stays succeeded with its report whole.
func TestReportStalledReaderTimesOut(t *testing.T) {
	shorten(t, &listenerWriteTimeout, 2*time.Second)
	s, id, want, baseline := reportServer(t)
	conn := rawReportRequest(t, s, id)
	defer conn.Close()
	resp, err := http.ReadResponse(bufio.NewReader(conn), nil)
	if err != nil {
		t.Fatal(err)
	}
	waitWriting(t)
	waitGoroutines(t, baseline)

	if n, err := io.Copy(io.Discard, resp.Body); err == nil || n >= resp.ContentLength {
		t.Errorf("stalled reader got %d of %d declared bytes (%v), want the write cut short", n, resp.ContentLength, err)
	}
	if st, err := s.store.Status(id); err != nil || st.State != StateSucceeded {
		t.Errorf("status = %+v, %v; want succeeded", st, err)
	}
	if rep, _, err := s.store.Report(id); err != nil || !reflect.DeepEqual(rep, want) {
		t.Errorf("report after the cut: %v, equal to the job's %v", err, reflect.DeepEqual(rep, want))
	}
}
