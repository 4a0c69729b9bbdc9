package p2p

import (
	"bytes"
	"context"
	"encoding/base64"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"strconv"
	"time"

	"gsn/internal/directory"
	"gsn/internal/integrity"
	"gsn/internal/resilience"
	"gsn/internal/sqlengine"
	"gsn/internal/stream"
)

// DefaultShortTimeout bounds the client's short RPCs (info, sensors,
// schema, query, directory, gossip). The long-poll stream fetch has its
// own, much larger budget — conflating the two would make a control
// call wait half a minute for a peer that is simply down.
const DefaultShortTimeout = 5 * time.Second

// maxJSONBody caps JSON response bodies (directory snapshots, sensor
// lists, query results) so a misbehaving peer cannot balloon memory.
const maxJSONBody = 8 << 20

// ErrCircuitOpen is returned by short RPCs while the client's breaker
// is open: the peer has failed repeatedly and calls are shed locally
// until the cooldown expires.
var ErrCircuitOpen = errors.New("p2p: circuit open")

// Client talks to one peer node's p2p interface.
type Client struct {
	// Base is the peer's base URL (e.g. "http://host:22001").
	Base string
	// HTTP is the transport; nil uses a client with a 35s timeout
	// (above the maximum long-poll wait).
	HTTP *http.Client
	// Keys verifies signed responses when the peer signs them; nil
	// skips verification.
	Keys *integrity.KeyRing
	// RequireSignature rejects unsigned stream responses.
	RequireSignature bool
	// Breaker, when set, gates the short RPCs: after its threshold of
	// consecutive transport failures, calls fail fast with
	// ErrCircuitOpen until the cooldown lets a probe through. The
	// long-poll Fetch/FetchSeq path is deliberately not gated — the
	// remote wrapper owns its own retry/backoff policy there.
	Breaker *resilience.Breaker
	// ShortTimeout overrides DefaultShortTimeout for short RPCs.
	ShortTimeout time.Duration
}

func (c *Client) http() *http.Client {
	if c.HTTP != nil {
		return c.HTTP
	}
	return &http.Client{Timeout: 35 * time.Second}
}

// short issues a breaker-gated request with the short-RPC deadline.
// The returned cancel must be called after the body has been consumed.
func (c *Client) short(method, path string, body io.Reader, contentType string) (*http.Response, context.CancelFunc, error) {
	if c.Breaker != nil && !c.Breaker.Allow() {
		return nil, nil, ErrCircuitOpen
	}
	timeout := c.ShortTimeout
	if timeout <= 0 {
		timeout = DefaultShortTimeout
	}
	ctx, cancel := context.WithTimeout(context.Background(), timeout)
	req, err := http.NewRequestWithContext(ctx, method, c.Base+path, body)
	if err != nil {
		cancel()
		return nil, nil, err
	}
	if contentType != "" {
		req.Header.Set("Content-Type", contentType)
	}
	resp, err := c.http().Do(req)
	if err != nil {
		cancel()
		// Transport-level failure: the peer is unreachable or stalled.
		// A served error status is a healthy connection and does not
		// count against the breaker.
		if c.Breaker != nil {
			c.Breaker.Failure()
		}
		return nil, nil, err
	}
	if c.Breaker != nil {
		c.Breaker.Success()
	}
	return resp, cancel, nil
}

// Info fetches the peer's identity and sensor list.
func (c *Client) Info() (InfoResponse, error) {
	var info InfoResponse
	err := c.getJSON("/p2p/info", &info)
	return info, err
}

// Sensors lists the peer's virtual sensors.
func (c *Client) Sensors() ([]SensorInfo, error) {
	var out []SensorInfo
	err := c.getJSON("/p2p/sensors", &out)
	return out, err
}

// Schema fetches a remote sensor's output schema.
func (c *Client) Schema(vs string) (*stream.Schema, error) {
	resp, cancel, err := c.short(http.MethodGet, "/p2p/schema?vs="+url.QueryEscape(vs), nil, "")
	if err != nil {
		return nil, err
	}
	defer cancel()
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("p2p: schema %s: %s", vs, resp.Status)
	}
	data, err := io.ReadAll(io.LimitReader(resp.Body, 1<<20))
	if err != nil {
		return nil, err
	}
	schema, _, err := stream.DecodeSchema(data)
	return schema, err
}

// StreamPage is one response of the sequence-cursor stream protocol:
// a suffix of the peer table's live window plus the coordinates a
// consumer needs for exactly-once resumption. Epoch identifies the
// peer's current sequence space; First is the sequence number of
// Elems[0] (zero when the page is empty); WindowFirst/WindowLast bound
// the live window at serve time, so First > cursor+1 means elements
// were evicted before we fetched them and WindowLast alone advances a
// cursor past an empty poll.
type StreamPage struct {
	Elems       []stream.Element
	Schema      *stream.Schema
	Epoch       uint64
	First       uint64
	WindowFirst uint64
	WindowLast  uint64
}

// Fetch pulls elements of vs with timestamp > since, long-polling up to
// wait on the server side. The element schema rides in a header, so the
// caller needs no prior schema knowledge.
//
// Deprecated for replication: the timestamp cursor silently drops
// equal-timestamp elements across reconnects and double-delivers after
// torn responses. Use FetchSeq, which resumes by sequence number.
func (c *Client) Fetch(vs string, since stream.Timestamp, wait time.Duration) ([]stream.Element, *stream.Schema, error) {
	u := fmt.Sprintf("%s/p2p/stream?vs=%s&since=%d&wait=%d",
		c.Base, url.QueryEscape(vs), int64(since), wait.Milliseconds())
	resp, err := c.http().Get(u)
	if err != nil {
		return nil, nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, nil, fmt.Errorf("p2p: stream %s: %s", vs, resp.Status)
	}
	elems, schema, err := c.decodeStream(resp)
	if err != nil {
		return nil, nil, err
	}
	return elems, schema, nil
}

// FetchSeq pulls elements of vs with sequence number > after,
// long-polling up to wait on the server side. The request is issued
// under ctx so a stopping consumer can abandon an in-flight long poll
// immediately instead of waiting out the transport timeout.
func (c *Client) FetchSeq(ctx context.Context, vs string, after uint64, wait time.Duration) (StreamPage, error) {
	u := fmt.Sprintf("%s/p2p/stream?vs=%s&after=%d&wait=%d",
		c.Base, url.QueryEscape(vs), after, wait.Milliseconds())
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, u, nil)
	if err != nil {
		return StreamPage{}, err
	}
	resp, err := c.http().Do(req)
	if err != nil {
		return StreamPage{}, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return StreamPage{}, fmt.Errorf("p2p: stream %s: %s", vs, resp.Status)
	}

	var page StreamPage
	if page.Epoch, err = headerUint(resp, epochHeader); err != nil {
		return StreamPage{}, err
	}
	if page.First, err = headerUint(resp, firstHeader); err != nil {
		return StreamPage{}, err
	}
	if page.WindowFirst, err = headerUint(resp, winFirstHeader); err != nil {
		return StreamPage{}, err
	}
	if page.WindowLast, err = headerUint(resp, winLastHeader); err != nil {
		return StreamPage{}, err
	}
	page.Elems, page.Schema, err = c.decodeStream(resp)
	if err != nil {
		return StreamPage{}, err
	}
	if len(page.Elems) > 0 && page.First == 0 {
		return StreamPage{}, fmt.Errorf("p2p: stream %s: non-empty page without first-sequence header", vs)
	}
	return page, nil
}

func headerUint(resp *http.Response, name string) (uint64, error) {
	v := resp.Header.Get(name)
	if v == "" {
		return 0, fmt.Errorf("p2p: response missing %s header (peer too old for the sequence protocol?)", name)
	}
	n, err := strconv.ParseUint(v, 10, 64)
	if err != nil {
		return 0, fmt.Errorf("p2p: bad %s header %q", name, v)
	}
	return n, nil
}

// decodeStream verifies and decodes a /p2p/stream response body: read
// (bounded), check the HMAC if present (or required), decode the schema
// header, then the packed elements.
func (c *Client) decodeStream(resp *http.Response) ([]stream.Element, *stream.Schema, error) {
	body, err := io.ReadAll(io.LimitReader(resp.Body, 256<<20))
	if err != nil {
		return nil, nil, err
	}

	if mac := resp.Header.Get(signatureHeader); mac != "" {
		if c.Keys == nil {
			return nil, nil, fmt.Errorf("p2p: peer signed the response but no keyring is configured")
		}
		sig := integrity.Signature{KeyID: resp.Header.Get(keyIDHeader), MAC: mac}
		if err := c.Keys.Verify(sig, body); err != nil {
			return nil, nil, err
		}
	} else if c.RequireSignature {
		return nil, nil, fmt.Errorf("p2p: unsigned response from %s", c.Base)
	}

	schemaB64 := resp.Header.Get(schemaHeader)
	if schemaB64 == "" {
		return nil, nil, fmt.Errorf("p2p: response missing schema header")
	}
	schemaBytes, err := base64.StdEncoding.DecodeString(schemaB64)
	if err != nil {
		return nil, nil, fmt.Errorf("p2p: bad schema header: %w", err)
	}
	schema, _, err := stream.DecodeSchema(schemaBytes)
	if err != nil {
		return nil, nil, err
	}

	var out []stream.Element
	r := bytes.NewReader(body)
	for r.Len() > 0 {
		e, err := stream.ReadElement(r, schema)
		if err != nil {
			return nil, nil, fmt.Errorf("p2p: decoding stream: %w", err)
		}
		out = append(out, e)
	}
	return out, schema, nil
}

// Query runs a one-shot SQL query over the peer's own streams (served
// from the peer's result cache when its windows are unchanged). Values
// keep their exact types across the hop; columns carry names only.
func (c *Client) Query(sql string) (*sqlengine.Relation, error) {
	var tr TypedResult
	if err := c.getJSON("/p2p/query?sql="+url.QueryEscape(sql), &tr); err != nil {
		return nil, err
	}
	return relationOfTyped(tr), nil
}

// DirectorySnapshot fetches the peer's directory entries.
func (c *Client) DirectorySnapshot() ([]directory.Entry, error) {
	var out []directory.Entry
	err := c.getJSON("/p2p/directory", &out)
	return out, err
}

// Gossip performs one push-pull round: send our snapshot, merge the
// peer's response into reg. It returns the number of adopted entries.
func (c *Client) Gossip(reg *directory.Registry) (int, error) {
	payload, err := json.Marshal(reg.Snapshot())
	if err != nil {
		return 0, err
	}
	resp, cancel, err := c.short(http.MethodPost, "/p2p/directory/merge",
		bytes.NewReader(payload), "application/json")
	if err != nil {
		return 0, err
	}
	defer cancel()
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return 0, fmt.Errorf("p2p: gossip: %s", resp.Status)
	}
	var theirs []directory.Entry
	if err := json.NewDecoder(io.LimitReader(resp.Body, maxJSONBody)).Decode(&theirs); err != nil {
		return 0, err
	}
	return reg.Merge(theirs), nil
}

func (c *Client) getJSON(path string, out any) error {
	resp, cancel, err := c.short(http.MethodGet, path, nil, "")
	if err != nil {
		return err
	}
	defer cancel()
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("p2p: GET %s: %s", path, resp.Status)
	}
	return json.NewDecoder(io.LimitReader(resp.Body, maxJSONBody)).Decode(out)
}
