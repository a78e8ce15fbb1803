package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/service"
	"repro/internal/shard"
)

// pollEvery is the fixed job-status poll interval. It sits well below
// the smallest job_p50_ms of any workload, so polling adds at most a
// couple of milliseconds to a job's observed latency.
const pollEvery = 2 * time.Millisecond

// errRefused marks an attempt the server shed with 429 or 503. It is
// counted as a failed operation, never retried silently.
var errRefused = errors.New("refused by the server")

// client is one closed-loop HTTP client shared by a workload's client
// goroutines. It records the client-side latency of every request by
// endpoint, the status polls spent per job, and the /query2 scan
// counters the server reports.
type client struct {
	base string
	hc   *http.Client

	mu        sync.Mutex
	endpoints map[string]*samples

	polls   atomic.Int64
	refused atomic.Int64
	scanned atomic.Int64 // X-Granula-Scanned summed over executed /query2
	pruned  atomic.Int64 // X-Granula-Pruned likewise

	notModified atomic.Int64 // 304 replies to conditional reads
}

func newClient(base string) *client {
	return &client{
		base: base,
		hc: &http.Client{
			Timeout:   60 * time.Second,
			Transport: &http.Transport{MaxIdleConnsPerHost: 8},
		},
		endpoints: map[string]*samples{},
	}
}

func (c *client) close() { c.hc.CloseIdleConnections() }

func (c *client) endpoint(name string) *samples {
	c.mu.Lock()
	defer c.mu.Unlock()
	s, ok := c.endpoints[name]
	if !ok {
		s = &samples{}
		c.endpoints[name] = s
	}
	return s
}

// logEndpoints writes each endpoint's request count and client-side
// p50/p90/p99 latency, for reading a metric's spread by its parts.
func (c *client) logEndpoints(w io.Writer) {
	c.mu.Lock()
	names := make([]string, 0, len(c.endpoints))
	for name := range c.endpoints {
		names = append(names, name)
	}
	c.mu.Unlock()
	sort.Strings(names)
	for _, name := range names {
		v := c.endpoint(name).values()
		fmt.Fprintf(w, "perfbench: endpoint %s: n=%d p50=%.3fms p90=%.3fms p99=%.3fms\n",
			name, len(v), quantile(v, 0.5), quantile(v, 0.9), quantile(v, 0.99))
	}
}

// do issues one request and records its latency under endpoint.
func (c *client) do(endpoint, method, path string, body []byte, hdr http.Header) (int, []byte, http.Header, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequest(method, c.base+path, rd)
	if err != nil {
		return 0, nil, nil, err
	}
	for k, vs := range hdr {
		req.Header[k] = vs
	}
	start := time.Now()
	resp, err := c.hc.Do(req)
	if err != nil {
		return 0, nil, nil, err
	}
	payload, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	c.endpoint(endpoint).addDur(time.Since(start))
	if err != nil {
		return 0, nil, nil, err
	}
	if resp.StatusCode == http.StatusTooManyRequests || resp.StatusCode == http.StatusServiceUnavailable {
		c.refused.Add(1)
		return resp.StatusCode, payload, resp.Header, fmt.Errorf("%s %s: %w (%d)", method, path, errRefused, resp.StatusCode)
	}
	return resp.StatusCode, payload, resp.Header, nil
}

// get fetches path and fails on anything but 200 (or 304 when the
// request was conditional).
func (c *client) get(endpoint, path string, hdr http.Header) ([]byte, http.Header, error) {
	code, body, h, err := c.do(endpoint, "GET", path, nil, hdr)
	if err != nil {
		return nil, nil, err
	}
	if code == http.StatusNotModified && hdr.Get("If-None-Match") != "" {
		c.notModified.Add(1)
		return body, h, nil
	}
	if code == http.StatusOK {
		return body, h, nil
	}
	return nil, nil, fmt.Errorf("GET %s: %d: %s", path, code, body)
}

// query2 fetches one cross-job aggregate and accumulates the scan
// counters of replies that executed (cache hits carry none).
func (c *client) query2(path string) ([]byte, error) {
	body, h, err := c.get("query2", path, nil)
	if err != nil {
		return nil, err
	}
	if sc := h.Get(shard.ScannedHeader); sc != "" {
		s, _ := strconv.Atoi(sc)
		p, _ := strconv.Atoi(h.Get(shard.PrunedHeader))
		c.scanned.Add(int64(s))
		c.pruned.Add(int64(p))
	}
	return body, nil
}

// runJob submits req and polls its status at the fixed interval until
// it reads done, returning the job's ID, summary and the client-observed
// latency from POST to the first done status.
func (c *client) runJob(req service.JobRequest) (string, *service.Summary, time.Duration, error) {
	buf, err := json.Marshal(req)
	if err != nil {
		return "", nil, 0, err
	}
	start := time.Now()
	code, body, _, err := c.do("submit", "POST", "/jobs", buf, nil)
	if err != nil {
		return "", nil, 0, err
	}
	if code != http.StatusAccepted {
		return "", nil, 0, fmt.Errorf("submit: %d: %s", code, body)
	}
	var sub struct {
		ID string `json:"id"`
	}
	if err := json.Unmarshal(body, &sub); err != nil {
		return "", nil, 0, fmt.Errorf("submit reply: %w", err)
	}
	for {
		body, _, err := c.get("status", "/jobs/"+sub.ID, nil)
		c.polls.Add(1)
		if err != nil {
			return sub.ID, nil, 0, err
		}
		var st service.JobState
		if err := json.Unmarshal(body, &st); err != nil {
			return sub.ID, nil, 0, fmt.Errorf("status reply: %w", err)
		}
		switch st.Status {
		case service.StatusDone:
			if st.Summary == nil {
				return sub.ID, nil, 0, fmt.Errorf("job %s done without a summary", sub.ID)
			}
			return sub.ID, st.Summary, time.Since(start), nil
		case service.StatusFailed, service.StatusCanceled:
			return sub.ID, nil, 0, fmt.Errorf("job %s %s: %s", sub.ID, st.Status, st.Error)
		}
		time.Sleep(pollEvery)
	}
}

// waitHealthy polls base+/healthz until it answers 200 with status ok.
func waitHealthy(hc *http.Client, base string, limit time.Duration) error {
	deadline := time.Now().Add(limit)
	for {
		resp, err := hc.Get(base + "/healthz")
		if err == nil {
			var h struct {
				Status string `json:"status"`
			}
			err = json.NewDecoder(resp.Body).Decode(&h)
			resp.Body.Close()
			if err == nil && resp.StatusCode == http.StatusOK && h.Status == "ok" {
				return nil
			}
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("%s never became healthy: %v", base, err)
		}
		time.Sleep(time.Millisecond)
	}
}
