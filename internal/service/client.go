package service

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"

	"repro/internal/scalefold"
	"repro/internal/store"
)

// Client is the thin HTTP client behind `scalefold submit` and `scalefold
// jobs`: plain JSON over the /v1 API, no state beyond the base URL.
type Client struct {
	// Base is the server root, e.g. "http://127.0.0.1:8823".
	Base string
	// HTTP overrides the transport (nil = http.DefaultClient). Streams can
	// outlive any client timeout, so a custom client should keep Timeout 0
	// and bound dials/TLS instead.
	HTTP *http.Client
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

// send issues one request, JSON-encoding body when non-nil, and returns
// the response when it is 2xx. Any other status becomes an error carrying
// the server's error envelope.
func (c *Client) send(method, path string, body any) (*http.Response, error) {
	var rd io.Reader
	if body != nil {
		b, err := json.Marshal(body)
		if err != nil {
			return nil, fmt.Errorf("service: %w", err)
		}
		rd = bytes.NewReader(b)
	}
	req, err := http.NewRequest(method, c.url(path), rd)
	if err != nil {
		return nil, fmt.Errorf("service: %w", err)
	}
	if method == http.MethodPost {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := c.http().Do(req)
	if err != nil {
		return nil, fmt.Errorf("service: %w", err)
	}
	if resp.StatusCode/100 == 2 {
		return resp, nil
	}
	defer resp.Body.Close()
	msg, err := io.ReadAll(resp.Body)
	if err != nil {
		// A truncated error body must not masquerade as an empty one:
		// surface the read failure alongside the status.
		return nil, fmt.Errorf("service: HTTP %d: body unreadable: %v", resp.StatusCode, err)
	}
	var ae apiError
	if json.Unmarshal(msg, &ae) == nil && ae.Error != "" {
		return nil, fmt.Errorf("service: %s (HTTP %d)", ae.Error, resp.StatusCode)
	}
	return nil, fmt.Errorf("service: HTTP %d: %s", resp.StatusCode, bytes.TrimSpace(msg))
}

// call sends one request and decodes its JSON response as a T.
func call[T any](c *Client, method, path string, body any) (T, error) {
	var out T
	resp, err := c.send(method, path, body)
	if err != nil {
		return out, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return out, fmt.Errorf("service: reading response: %w", err)
	}
	if err := json.Unmarshal(data, &out); err != nil {
		return out, fmt.Errorf("service: decoding response: %w", err)
	}
	return out, nil
}

// Submit posts a job spec and returns the accepted job's status.
func (c *Client) Submit(spec JobSpec) (JobStatus, error) {
	return call[JobStatus](c, http.MethodPost, "/v1/jobs", spec)
}

// SubmitSearch posts an adaptive-search spec (POST /v1/search) and returns
// the accepted job's status.
func (c *Client) SubmitSearch(spec SearchJobSpec) (JobStatus, error) {
	return call[JobStatus](c, http.MethodPost, "/v1/search", spec)
}

// Jobs lists every job on the server, in submit order.
func (c *Client) Jobs() ([]JobStatus, error) {
	out, err := call[struct {
		Jobs []JobStatus `json:"jobs"`
	}](c, http.MethodGet, "/v1/jobs", nil)
	return out.Jobs, err
}

// Job fetches one job's status.
func (c *Client) Job(id string) (JobStatus, error) {
	return call[JobStatus](c, http.MethodGet, "/v1/jobs/"+id, nil)
}

// Cancel cancels a queued or running job and returns its status.
func (c *Client) Cancel(id string) (JobStatus, error) {
	return call[JobStatus](c, http.MethodPost, "/v1/jobs/"+id+"/cancel", nil)
}

// StoreStatus fetches the server's store statistics.
func (c *Client) StoreStatus() (StoreStatus, error) {
	return call[StoreStatus](c, http.MethodGet, "/v1/store", nil)
}

// CompactStore asks the server to compact its persistent store
// (POST /v1/store/compact) and returns the compaction statistics.
func (c *Client) CompactStore() (store.CompactStats, error) {
	return call[store.CompactStats](c, http.MethodPost, "/v1/store/compact", nil)
}

// Trace downloads a job's Chrome trace-event JSON (GET /v1/jobs/{id}/trace)
// and copies it to w verbatim — what `scalefold trace` writes to its output
// file.
func (c *Client) Trace(id string, w io.Writer) error {
	resp, err := c.send(http.MethodGet, "/v1/jobs/"+id+"/trace", nil)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if _, err := io.Copy(w, resp.Body); err != nil {
		return fmt.Errorf("service: %w", err)
	}
	return nil
}

// follow reads a job's NDJSON stream up to its terminal DoneEvent, handing
// every earlier event to onEvent with its type; an onEvent error aborts the
// stream.
func (c *Client) follow(id string, onEvent func(typ string, line []byte) error) (DoneEvent, error) {
	resp, err := c.send(http.MethodGet, "/v1/jobs/"+id+"/stream", nil)
	if err != nil {
		return DoneEvent{}, err
	}
	defer resp.Body.Close()
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 64<<10), 16<<20)
	for sc.Scan() {
		line := sc.Bytes()
		if len(bytes.TrimSpace(line)) == 0 {
			continue
		}
		var kind struct {
			Type string `json:"type"`
		}
		if err := json.Unmarshal(line, &kind); err != nil {
			return DoneEvent{}, fmt.Errorf("service: bad stream line %q: %w", line, err)
		}
		if kind.Type == "done" {
			var ev DoneEvent
			if err := json.Unmarshal(line, &ev); err != nil {
				return DoneEvent{}, fmt.Errorf("service: bad done event: %w", err)
			}
			return ev, nil
		}
		if err := onEvent(kind.Type, line); err != nil {
			return DoneEvent{}, err
		}
	}
	if err := sc.Err(); err != nil {
		return DoneEvent{}, fmt.Errorf("service: %w", err)
	}
	return DoneEvent{}, fmt.Errorf("service: stream for %s ended without a done event", id)
}

// onStreamEvent decodes one stream line as an E and hands it to on; a nil
// on skips the line undecoded.
func onStreamEvent[E any](typ string, line []byte, on func(E) error) error {
	if on == nil {
		return nil
	}
	var ev E
	if err := json.Unmarshal(line, &ev); err != nil {
		return fmt.Errorf("service: bad %s event: %w", typ, err)
	}
	return on(ev)
}

// Stream follows a job's NDJSON stream to completion. onRow (optional)
// receives each RowEvent as it arrives; returning an error aborts the
// stream. Stream returns the terminal DoneEvent.
func (c *Client) Stream(id string, onRow func(RowEvent) error) (DoneEvent, error) {
	return c.follow(id, func(typ string, line []byte) error {
		if typ != "row" {
			return fmt.Errorf("service: unknown stream event type %q", typ)
		}
		return onStreamEvent(typ, line, onRow)
	})
}

// SearchStream follows a search job's NDJSON stream to completion. onProbe
// (optional) receives each ProbeEvent as it arrives; returning an error
// aborts the stream. SearchStream returns the FrontierEvent's report (nil if
// the job ended without one — cancelled or failed) and the terminal
// DoneEvent.
func (c *Client) SearchStream(id string, onProbe func(ProbeEvent) error) (*scalefold.Frontier, DoneEvent, error) {
	var frontier *scalefold.Frontier
	done, err := c.follow(id, func(typ string, line []byte) error {
		switch typ {
		case "probe":
			return onStreamEvent(typ, line, onProbe)
		case "frontier":
			return onStreamEvent(typ, line, func(ev FrontierEvent) error {
				frontier = &ev.Frontier
				return nil
			})
		}
		return fmt.Errorf("service: unknown stream event type %q", typ)
	})
	return frontier, done, err
}

// RawStream follows a job's stream and prints one JSON object per line to w
// — what `scalefold submit -stream` shows. It returns the terminal
// DoneEvent.
func (c *Client) RawStream(id string, w io.Writer) (DoneEvent, error) {
	var done DoneEvent
	done, err := c.Stream(id, func(ev RowEvent) error {
		line, merr := json.Marshal(ev)
		if merr != nil {
			return merr
		}
		_, werr := fmt.Fprintf(w, "%s\n", line)
		return werr
	})
	if err != nil {
		return done, err
	}
	line, merr := json.Marshal(done)
	if merr == nil {
		fmt.Fprintf(w, "%s\n", line)
	}
	return done, nil
}
