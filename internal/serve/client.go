package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"slices"
	"strconv"
	"time"
)

// Client talks to a gpuprofd daemon over its v1 HTTP API. The zero value
// is unusable; set Base (e.g. "http://127.0.0.1:8791"). HTTP defaults to
// http.DefaultClient.
type Client struct {
	Base string
	HTTP *http.Client
}

// ErrJobFailed reports a job that reached a terminal state other than
// succeeded while being waited on; the wrapping message carries the
// daemon-side error string.
var ErrJobFailed = errors.New("job did not succeed")

// ErrResponseTooLarge reports a response body above maxResponseBytes,
// declared so or streamed past it; the client stops reading at the cap.
var ErrResponseTooLarge = errors.New("response body too large")

// maxResponseBytes caps the body the client reads. A status is under 1 KiB
// and a report tens of KiB; the cap is far above both, and a list of the
// store's maxTerminalJobs finished jobs fits it unless their requests
// average above 64 KiB.
var maxResponseBytes int64 = 64 << 20

func (c *Client) httpClient() *http.Client {
	if c.HTTP != nil {
		return c.HTTP
	}
	return http.DefaultClient
}

// do issues the request, reads the response body whole and unmarshals it
// into out. Non-2xx responses become errors carrying the server's "error"
// field.
func (c *Client) do(ctx context.Context, method, path string, body, out any) error {
	var rd io.Reader
	if body != nil {
		b, err := json.Marshal(body)
		if err != nil {
			return fmt.Errorf("serve client: encode %s %s: %w", method, path, err)
		}
		rd = bytes.NewReader(b)
	}
	req, err := http.NewRequestWithContext(ctx, method, c.Base+path, rd)
	if err != nil {
		return fmt.Errorf("serve client: %s %s: %w", method, path, err)
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := c.httpClient().Do(req)
	if err != nil {
		return fmt.Errorf("serve client: %s %s: %w", method, path, err)
	}
	defer resp.Body.Close()
	data, err := readBody(resp.Body, resp.ContentLength)
	if resp.StatusCode < 200 || resp.StatusCode > 299 {
		var e struct {
			Error string `json:"error"`
		}
		msg := resp.Status
		if err == nil && json.Unmarshal(data, &e) == nil && e.Error != "" {
			msg = e.Error
		}
		return fmt.Errorf("serve client: %s %s: %s (HTTP %d)", method, path, msg, resp.StatusCode)
	}
	if err != nil {
		return fmt.Errorf("serve client: read %s %s: %w", method, path, err)
	}
	if err := json.Unmarshal(data, out); err != nil {
		return fmt.Errorf("serve client: decode %s %s: %w", method, path, err)
	}
	return nil
}

// readBody reads a body of declared length n (-1: unknown) to its end, into
// one buffer of that size when it is declared. Reading to the end is what
// lets the transport reuse the connection. A body above maxResponseBytes is
// ErrResponseTooLarge, found before reading when declared.
func readBody(r io.Reader, n int64) ([]byte, error) {
	if n > maxResponseBytes {
		return nil, fmt.Errorf("%w: declared %d bytes, above %d", ErrResponseTooLarge, n, maxResponseBytes)
	}
	if n < 0 {
		n = 512
	}
	// One byte more than declared, so the read that finds the end does not
	// grow the buffer.
	buf := make([]byte, 0, n+1)
	for {
		if len(buf) == cap(buf) {
			// Grow about twofold, asking for no more than one byte past
			// the cap.
			buf = slices.Grow(buf, min(len(buf), int(maxResponseBytes)+1-len(buf)))
		}
		m, err := r.Read(buf[len(buf):cap(buf)])
		buf = buf[:len(buf)+m]
		if int64(len(buf)) > maxResponseBytes {
			return nil, fmt.Errorf("%w: above %d bytes", ErrResponseTooLarge, maxResponseBytes)
		}
		if err == io.EOF {
			return buf, nil
		}
		if err != nil {
			return nil, err
		}
	}
}

// Submit posts a job and returns its initial status.
func (c *Client) Submit(ctx context.Context, req *JobRequest) (*JobStatus, error) {
	var st JobStatus
	if err := c.do(ctx, http.MethodPost, "/api/v1/jobs", req, &st); err != nil {
		return nil, err
	}
	return &st, nil
}

// Status fetches the current status of a job.
func (c *Client) Status(ctx context.Context, id string) (*JobStatus, error) {
	var st JobStatus
	if err := c.do(ctx, http.MethodGet, "/api/v1/jobs/"+id, nil, &st); err != nil {
		return nil, err
	}
	return &st, nil
}

// List fetches every job's status in submission order.
func (c *Client) List(ctx context.Context) ([]*JobStatus, error) {
	var out struct {
		Jobs []*JobStatus `json:"jobs"`
	}
	if err := c.do(ctx, http.MethodGet, "/api/v1/jobs", nil, &out); err != nil {
		return nil, err
	}
	return out.Jobs, nil
}

// Report fetches the report of a succeeded job (the server answers 409
// until then, which surfaces here as an error).
func (c *Client) Report(ctx context.Context, id string) (*Report, error) {
	var rep Report
	if err := c.do(ctx, http.MethodGet, "/api/v1/jobs/"+id+"/report", nil, &rep); err != nil {
		return nil, err
	}
	return &rep, nil
}

// Cancel requests cancellation and returns the post-cancel status (the job
// may still be "running" briefly while the cancellation lands).
func (c *Client) Cancel(ctx context.Context, id string) (*JobStatus, error) {
	var st JobStatus
	if err := c.do(ctx, http.MethodDelete, "/api/v1/jobs/"+id, nil, &st); err != nil {
		return nil, err
	}
	return &st, nil
}

// Wait blocks until the job reaches a terminal state or ctx expires. It
// asks the server to hold each status request until then (wait_ms, see
// maxStatusWait), so a job costs one request however long it runs; a status
// that comes back non-terminal is asked for again after the poll interval.
// It returns the terminal status; a non-succeeded terminal state also
// returns an error wrapping ErrJobFailed.
func (c *Client) Wait(ctx context.Context, id string, poll time.Duration) (*JobStatus, error) {
	if poll <= 0 {
		poll = 100 * time.Millisecond
	}
	t := time.NewTicker(poll)
	defer t.Stop()
	path := "/api/v1/jobs/" + id + "?wait_ms=" + strconv.FormatInt(maxStatusWait.Milliseconds(), 10)
	for {
		st := new(JobStatus)
		if err := c.do(ctx, http.MethodGet, path, nil, st); err != nil {
			if ctx.Err() != nil {
				return nil, fmt.Errorf("serve client: wait %s: %w", id, ctx.Err())
			}
			return nil, err
		}
		if st.State.Terminal() {
			if st.State != StateSucceeded {
				return st, fmt.Errorf("serve client: job %s %s: %s: %w", id, st.State, st.Error, ErrJobFailed)
			}
			return st, nil
		}
		select {
		case <-t.C:
		case <-ctx.Done():
			return st, fmt.Errorf("serve client: wait %s: %w", id, ctx.Err())
		}
	}
}
