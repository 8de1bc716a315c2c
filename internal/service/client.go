package service

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strings"
	"sync"
	"time"

	"zenspec/internal/harness"
)

// Client is the zenspecd /v1 API client, used by cmd/experiments -submit,
// cmd/zenspec-worker, and the verify.sh smokes. It implements LeaseSource,
// so a Worker pointed at a Client is a remote pull worker.
//
// Before the first real request the client fetches GET /v1/meta once and
// asserts the daemon speaks its API version; a daemon that cannot answer
// (pre-/v1 build, or the wrong service entirely) fails every call with
// ErrAPIVersion rather than misparsing responses. Error responses carry a
// machine-readable code that is mapped back onto the package's typed
// sentinels, so errors.Is works identically in-process and over the wire.
type Client struct {
	// Base is the server root, e.g. "http://127.0.0.1:8787".
	Base string
	// HTTP overrides the transport; nil uses http.DefaultClient.
	HTTP *http.Client
	// APIVersion is the protocol the client insists on; empty means the
	// package's own APIVersion ("v1").
	APIVersion string

	mu       sync.Mutex
	verified bool
}

func (c *Client) http() *http.Client {
	if c.HTTP != nil {
		return c.HTTP
	}
	return http.DefaultClient
}

func (c *Client) url(path string) string {
	return strings.TrimRight(c.Base, "/") + path
}

// roundTrip performs one request. Transport failures wrap
// ErrDaemonUnavailable; error responses are decoded into their sentinel; a
// 204 returns (nil, nil).
func (c *Client) roundTrip(method, path string, in any) ([]byte, error) {
	var body io.Reader
	if in != nil {
		payload, err := json.Marshal(in)
		if err != nil {
			return nil, err
		}
		body = bytes.NewReader(payload)
	}
	req, err := http.NewRequest(method, c.url(path), body)
	if err != nil {
		return nil, err
	}
	if in != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := c.http().Do(req)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrDaemonUnavailable, err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrDaemonUnavailable, err)
	}
	if resp.StatusCode == http.StatusNoContent {
		return nil, nil
	}
	if resp.StatusCode < 200 || resp.StatusCode > 299 {
		return nil, decodeErr(method, path, resp.Status, raw)
	}
	if raw == nil {
		raw = []byte{}
	}
	return raw, nil
}

// decodeErr turns an error response into the matching sentinel (when the
// body carries a known code) or a plain service error.
func decodeErr(method, path, status string, raw []byte) error {
	msg := strings.TrimSpace(string(raw))
	var ae apiError
	if json.Unmarshal(raw, &ae) == nil && ae.Error != "" {
		msg = ae.Error
	}
	var sentinel error
	switch ae.Code {
	case "bad_faults":
		sentinel = ErrBadFaults
	case "job_not_found":
		sentinel = ErrJobNotFound
	case "lease_not_found":
		sentinel = ErrLeaseNotFound
	case "draining":
		sentinel = ErrDraining
	case "unknown_experiment":
		sentinel = harness.ErrUnknownExperiment
	}
	if sentinel != nil {
		return fmt.Errorf("%w: %s %s: %s: %s", sentinel, method, path, status, msg)
	}
	return fmt.Errorf("service: %s %s: %s: %s", method, path, status, msg)
}

// ensureVersion performs the one-time /v1/meta handshake. A transport
// failure leaves the check pending (the next call retries); a daemon that
// answers with the wrong version — or cannot answer at all — is ErrAPIVersion.
func (c *Client) ensureVersion() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.verified {
		return nil
	}
	raw, err := c.roundTrip("GET", "/v1/meta", nil)
	if err != nil {
		if errors.Is(err, ErrDaemonUnavailable) {
			return err
		}
		return fmt.Errorf("%w: %v", ErrAPIVersion, err)
	}
	var m Meta
	if err := json.Unmarshal(raw, &m); err != nil {
		return fmt.Errorf("%w: bad meta response: %v", ErrAPIVersion, err)
	}
	want := c.APIVersion
	if want == "" {
		want = APIVersion
	}
	if m.APIVersion != want {
		return fmt.Errorf("%w: daemon speaks %q, client requires %q", ErrAPIVersion, m.APIVersion, want)
	}
	c.verified = true
	return nil
}

// request is roundTrip behind the version handshake — every public call goes
// through it.
func (c *Client) request(method, path string, in any) ([]byte, error) {
	if err := c.ensureVersion(); err != nil {
		return nil, err
	}
	return c.roundTrip(method, path, in)
}

// Meta fetches the daemon's self-description.
func (c *Client) Meta() (Meta, error) {
	raw, err := c.request("GET", "/v1/meta", nil)
	if err != nil {
		return Meta{}, err
	}
	var m Meta
	if err := json.Unmarshal(raw, &m); err != nil {
		return Meta{}, fmt.Errorf("service: meta response: %w", err)
	}
	return m, nil
}

// Submit posts a job and returns its ID.
func (c *Client) Submit(spec JobSpec) (string, error) {
	raw, err := c.request("POST", "/v1/jobs", spec)
	if err != nil {
		return "", err
	}
	var out struct {
		ID string `json:"id"`
	}
	if err := json.Unmarshal(raw, &out); err != nil {
		return "", fmt.Errorf("service: submit response: %w", err)
	}
	return out.ID, nil
}

// Status fetches one job's status.
func (c *Client) Status(id string) (JobStatus, error) {
	raw, err := c.request("GET", "/v1/jobs/"+id, nil)
	if err != nil {
		return JobStatus{}, err
	}
	var st JobStatus
	if err := json.Unmarshal(raw, &st); err != nil {
		return JobStatus{}, fmt.Errorf("service: status response: %w", err)
	}
	return st, nil
}

// Wait polls until the job reaches a terminal state or ctx expires. A job
// that finishes failed returns its status and an error wrapping ErrJobFailed.
//
// Outages (connection refused, reset — anything wrapping
// ErrDaemonUnavailable) are tolerated and polled through: the job is
// journaled server-side, so a daemon that crashes and restarts mid-wait
// resumes it and this poll loop picks it back up. Only definitive API errors
// (ErrJobNotFound and kin) fail the wait.
func (c *Client) Wait(ctx context.Context, id string, poll time.Duration) (JobStatus, error) {
	if poll <= 0 {
		poll = 200 * time.Millisecond
	}
	for {
		st, err := c.Status(id)
		switch {
		case err == nil && st.Terminal():
			if st.State == JobFailed {
				return st, fmt.Errorf("%w: %s", ErrJobFailed, st.Error)
			}
			return st, nil
		case err != nil && !errors.Is(err, ErrDaemonUnavailable):
			return JobStatus{}, err
		}
		select {
		case <-ctx.Done():
			return st, ctx.Err()
		case <-time.After(poll):
		}
	}
}

// Report fetches the merged SuiteReport.
func (c *Client) Report(id string) (harness.SuiteReport, error) {
	raw, err := c.request("GET", "/v1/jobs/"+id+"/report", nil)
	if err != nil {
		return harness.SuiteReport{}, err
	}
	var rep harness.SuiteReport
	if err := json.Unmarshal(raw, &rep); err != nil {
		return harness.SuiteReport{}, fmt.Errorf("service: report response: %w", err)
	}
	return rep, nil
}

// StableReport fetches the report in canonical StableJSON form, byte-
// comparable with a direct cmd/experiments -stable run of the same spec.
func (c *Client) StableReport(id string) ([]byte, error) {
	return c.request("GET", "/v1/jobs/"+id+"/report?stable=1", nil)
}

// Lease claims the next pending shard over the wire; (nil, nil) means
// nothing was available within the wait window. Part of LeaseSource.
func (c *Client) Lease(worker string, wait time.Duration) (*Lease, error) {
	raw, err := c.request("POST", "/v1/leases", struct {
		Worker string `json:"worker"`
		WaitMS int64  `json:"wait_ms"`
	}{worker, wait.Milliseconds()})
	if err != nil || raw == nil {
		return nil, err
	}
	var l Lease
	if err := json.Unmarshal(raw, &l); err != nil {
		return nil, fmt.Errorf("service: lease response: %w", err)
	}
	return &l, nil
}

// Heartbeat keeps a lease alive and streams trial progress. Part of
// LeaseSource.
func (c *Client) Heartbeat(token string, trialsDone, trialsTotal int) error {
	_, err := c.request("POST", "/v1/leases/"+token+"/heartbeat", struct {
		Done  int `json:"done"`
		Total int `json:"total"`
	}{trialsDone, trialsTotal})
	return err
}

// Complete hands a finished shard back under its lease token, attempt spans
// included. Part of LeaseSource.
func (c *Client) Complete(token string, comp Completion) error {
	_, err := c.request("POST", "/v1/leases/"+token+"/complete", comp)
	return err
}
