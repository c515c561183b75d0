package main

import (
	"bytes"
	"crypto/rand"
	"crypto/rsa"
	"encoding/json"
	"fmt"
	"io"
	"math/big"
	"net/http"
	"net/http/httptrace"
	"sync"
	"time"

	"opinions/internal/blindsig"
	"opinions/internal/cluster"
	"opinions/internal/reviews"
	"opinions/internal/rspserver"
	"opinions/internal/store"
	"opinions/internal/stripe"
)

// System is the deployment under test as a client sees it: one node, or
// a ring of partitions routed the way rspclient.Router and cmd/loadgen
// route — keyed requests to the owner, unkeyed reads to the coordinator
// the request URI hashes to. Each rspd process has its own token key,
// so a contribution's token comes from the node its upload lands on.
type System struct {
	Nodes   []*Node
	Ring    *cluster.Ring // nil for a single node
	PubKeys map[string]*rsa.PublicKey
}

func (s *System) forKey(key string) string {
	if s.Ring == nil {
		return s.Nodes[0].URL
	}
	return s.Ring.NodeFor(key)
}

func (s *System) coordinator(uri string) string {
	if s.Ring == nil {
		return s.Nodes[0].URL
	}
	return s.Nodes[stripe.IndexN(uri, len(s.Nodes))].URL
}

// Checks collects output-check failures; any failure fails the run.
type Checks struct {
	mu       sync.Mutex
	failures []string
	count    int
}

func (c *Checks) failf(format string, args ...any) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.count++
	if len(c.failures) < 20 {
		c.failures = append(c.failures, fmt.Sprintf(format, args...))
	}
}

// Failed reports how many checks failed and the first few messages.
func (c *Checks) Failed() (int, []string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.count, append([]string(nil), c.failures...)
}

// newTransport returns a transport limited to the load's connection
// budget: never more than conns requests in flight to one host.
func newTransport(conns int) *http.Transport {
	return &http.Transport{
		MaxIdleConns:        conns * 4,
		MaxIdleConnsPerHost: conns,
		MaxConnsPerHost:     conns,
		IdleConnTimeout:     time.Minute,
		DisableCompression:  true,
	}
}

// Client executes ops for one closed-loop client or open-loop sender.
// It is used by one goroutine at a time.
type Client struct {
	http   *http.Client
	sys    *System
	p      Params
	w      *World
	tr     *Tracer // set per window; nil = tracing off
	checks *Checks
	static *Counts // non-nil when the state cannot change (browse): entity bodies are checked against it

	acked    []rspserver.UploadRequest // recent acknowledged uploads, for redelivery
	ackedAt  int
	wrote    Counts          // acknowledged writes, for the end-of-run state check
	seenAnon map[string]bool // anonymous ids this client has opened a history under
	nSent    int
}

func newClient(hc *http.Client, sys *System, p Params, w *World, checks *Checks) *Client {
	return &Client{http: hc, sys: sys, p: p, w: w, checks: checks,
		wrote: Counts{Entity: make(map[string]*EntityCounts)}, seenAnon: make(map[string]bool)}
}

// outcome is what one executed op reports to the recorder.
type outcome struct {
	kind    OpKind
	ok      bool // completed with the expected status and a body that passed its checks
	skipped bool // nothing was sent; not an attempt
}

// Do executes one op; opID labels its spans.
func (c *Client) Do(op *Op, opID int) outcome {
	root := c.tr.Begin("client.op."+string(op.Kind), noSpan, opID)
	defer c.tr.End(root)
	switch op.Kind {
	case OpEntity, OpReviews:
		return c.get(op, c.sys.forKey(op.Entity), op.uri(c.p.SearchLimit), root, opID)
	case OpSearch, OpDirectory:
		uri := op.uri(c.p.SearchLimit)
		return c.get(op, c.sys.coordinator(uri), uri, root, opID)
	case OpContribute:
		return c.contribute(op, root, opID)
	case OpReviewPost:
		req := rspserver.PostReviewRequest{Entity: op.Entity, Author: op.Author, Rating: op.Rating, Text: op.Text}
		out := c.post(op.Kind, c.sys.forKey(op.Entity), "/api/reviews", req, http.StatusCreated, nil, root, opID)
		if out.ok {
			c.wrote.add(&store.Record{Kind: store.KindReview, Review: &reviews.Review{Entity: op.Entity}}, false)
		}
		return out
	case OpRedeliver:
		if len(c.acked) == 0 {
			return outcome{kind: OpRedeliver, skipped: true} // nothing acknowledged yet
		}
		req := c.acked[c.nSent%len(c.acked)]
		return c.post(op.Kind, c.sys.forKey(req.Entity), "/api/upload", req, http.StatusAccepted, nil, root, opID)
	case OpSweep:
		var resp rspserver.SweepResponse
		return c.operator(op.Kind, "/api/fraud/sweep", &resp, root, opID)
	case OpRetrain:
		return c.operator(op.Kind, "/api/model/retrain", nil, root, opID)
	}
	panic("bench: unknown op kind " + string(op.Kind))
}

// operator posts an operator command to every node, as
// rspclient.Router fans retrain and sweep out.
func (c *Client) operator(kind OpKind, path string, into any, root, opID int) outcome {
	out := outcome{kind: kind, ok: true}
	for _, n := range c.sys.Nodes {
		o := c.post(kind, n.URL, path, struct{}{}, http.StatusOK, into, root, opID)
		out.ok = out.ok && o.ok
	}
	return out
}

// send performs one round trip and returns status, body and size. The
// body is read in full only when wantBody is set; otherwise it is
// drained and counted.
func (c *Client) send(req *http.Request, wantBody bool, parent, opID int) (status int, body []byte, n int, partial bool, err error) {
	span := c.tr.Begin("client.send", parent, opID)
	defer c.tr.End(span)
	if c.tr != nil {
		start := time.Now()
		var wrote time.Time
		req = req.WithContext(httptrace.WithClientTrace(req.Context(), &httptrace.ClientTrace{
			GotConn:      func(httptrace.GotConnInfo) { c.tr.Add("net.conn_wait", start, time.Since(start), span, opID) },
			WroteRequest: func(httptrace.WroteRequestInfo) { wrote = time.Now() },
			GotFirstResponseByte: func() {
				if !wrote.IsZero() {
					c.tr.Add("net.ttfb", wrote, time.Since(wrote), span, opID)
				}
			},
		}))
	}
	c.nSent++
	resp, err := c.http.Do(req)
	if err != nil {
		return 0, nil, 0, false, err
	}
	defer resp.Body.Close()
	partial = resp.Header.Get(rspserver.PartialHeader) != ""
	if wantBody {
		body, err = io.ReadAll(resp.Body)
		return resp.StatusCode, body, len(body), partial, err
	}
	copied, err := io.Copy(io.Discard, resp.Body)
	return resp.StatusCode, nil, int(copied), partial, err
}

func (c *Client) get(op *Op, base, uri string, root, opID int) outcome {
	out := outcome{kind: op.Kind}
	// Search pages are always checked; entity bodies on a sample, since
	// decoding every one would make the harness the bottleneck.
	wantBody := op.Kind == OpSearch || (op.Kind == OpEntity && c.nSent%16 == 0)
	req, err := http.NewRequest(http.MethodGet, base+uri, nil)
	if err != nil {
		c.checks.failf("building GET %s: %v", uri, err)
		return out
	}
	status, body, n, partial, err := c.send(req, wantBody, root, opID)
	switch {
	case err != nil, status == http.StatusTooManyRequests, status == http.StatusServiceUnavailable:
		return out // a failed op, not a wrong answer: refusals and resets are what overload looks like
	case status != http.StatusOK:
		c.checks.failf("GET %s: status %d", uri, status)
		return out
	}
	if partial {
		c.checks.failf("GET %s: answered with %s", uri, rspserver.PartialHeader)
		return out
	}
	if n == 0 {
		c.checks.failf("GET %s: empty body", uri)
		return out
	}
	if wantBody && !c.checkBody(op, uri, body) {
		return out
	}
	out.ok = true
	return out
}

// checkBody validates a read response: a search page is score-descending
// and within the limit; an entity body names the entity asked for and,
// when the state is static, carries the counts the preload put there.
func (c *Client) checkBody(op *Op, uri string, body []byte) bool {
	switch op.Kind {
	case OpSearch:
		var page []rspserver.WireResult
		if err := json.Unmarshal(body, &page); err != nil {
			c.checks.failf("GET %s: undecodable page: %v", uri, err)
			return false
		}
		if len(page) > c.p.SearchLimit {
			c.checks.failf("GET %s: %d results exceed limit %d", uri, len(page), c.p.SearchLimit)
			return false
		}
		for i := 1; i < len(page); i++ {
			if page[i].Score > page[i-1].Score {
				c.checks.failf("GET %s: results not score-descending at %d", uri, i)
				return false
			}
		}
		for _, r := range page {
			if r.Entity.Service != op.Query.Service || r.Entity.Zip != op.Query.Zip {
				c.checks.failf("GET %s: result %s outside the query", uri, r.Entity.Key)
				return false
			}
		}
	case OpEntity:
		var res rspserver.WireResult
		if err := json.Unmarshal(body, &res); err != nil {
			c.checks.failf("GET %s: undecodable entity: %v", uri, err)
			return false
		}
		if res.Entity.Key != op.Entity {
			c.checks.failf("GET %s: body describes %q", uri, res.Entity.Key)
			return false
		}
		if c.static != nil {
			return checkEntityCounts(c.checks, c.w, res, c.static, true)
		}
	}
	return true
}

// checkEntityCounts compares one served entity body with the counts the
// schedule implies. Histories can be dropped by a fraud sweep, so they
// are compared only when withHistories is set.
func checkEntityCounts(checks *Checks, w *World, res rspserver.WireResult, want *Counts, withHistories bool) bool {
	ec := want.Entity[res.Entity.Key]
	if ec == nil {
		ec = &EntityCounts{}
	}
	ok := true
	if res.InferredCount != ec.Ratings {
		checks.failf("entity %s: inferred_count %d, schedule implies %d", res.Entity.Key, res.InferredCount, ec.Ratings)
		ok = false
	}
	wantReviews := ec.Reviews
	if wantReviews == 0 {
		wantReviews = w.ByKey[res.Entity.Key].ReviewCount // the catalog's calibrated count stands in
	}
	if res.ReviewCount != wantReviews {
		checks.failf("entity %s: review_count %d, schedule implies %d", res.Entity.Key, res.ReviewCount, wantReviews)
		ok = false
	}
	if withHistories && res.RawInteractions != ec.Visits {
		checks.failf("entity %s: raw_interactions %d, schedule implies %d", res.Entity.Key, res.RawInteractions, ec.Visits)
		ok = false
	}
	return ok
}

func (c *Client) post(kind OpKind, base, path string, payload any, wantStatus int, into any, root, opID int) outcome {
	out := outcome{kind: kind}
	buf, err := json.Marshal(payload)
	if err != nil {
		c.checks.failf("encoding POST %s: %v", path, err)
		return out
	}
	req, err := http.NewRequest(http.MethodPost, base+path, bytes.NewReader(buf))
	if err != nil {
		c.checks.failf("building POST %s: %v", path, err)
		return out
	}
	req.Header.Set("Content-Type", "application/json")
	status, body, _, _, err := c.send(req, into != nil, root, opID)
	switch {
	case err != nil, status == http.StatusTooManyRequests, status == http.StatusServiceUnavailable:
		return out
	case status != wantStatus:
		c.checks.failf("POST %s: status %d, want %d", path, status, wantStatus)
		return out
	}
	if into != nil {
		if err := json.Unmarshal(body, into); err != nil {
			c.checks.failf("POST %s: undecodable body: %v", path, err)
			return out
		}
	}
	out.ok = true
	return out
}

// contribute runs the whole anonymous contribution a device waits for:
// blind a fresh serial, have the owner node sign it for a fresh device,
// unblind and verify, then upload a visit record and a rating under the
// one-time token and an idempotency key.
func (c *Client) contribute(op *Op, root, opID int) outcome {
	out := outcome{kind: OpContribute}
	base := c.sys.forKey(op.Entity)
	pub := c.sys.PubKeys[base]

	t0 := time.Now()
	blinded, unblind, err := blindsig.Blind(pub, op.Serial, rand.Reader)
	if err != nil {
		c.checks.failf("blinding: %v", err)
		return out
	}
	blindDur := time.Since(t0)

	var signed rspserver.TokenSignResponse
	tok := c.post(OpContribute, base, "/api/token",
		rspserver.TokenSignRequest{Device: op.Device, Blinded: blinded.String()}, http.StatusOK, &signed, root, opID)
	if !tok.ok {
		return out
	}

	t1 := time.Now()
	blindSig, ok := new(big.Int).SetString(signed.BlindSig, 10)
	if !ok {
		c.checks.failf("POST /api/token: blind_sig is not a number")
		return out
	}
	sig := unblind(blindSig)
	if !blindsig.Verify(pub, op.Serial, sig) {
		c.checks.failf("POST /api/token: signature does not verify for device %s", op.Device)
		return out
	}
	c.tr.Add("rspclient.blind", t0, blindDur+time.Since(t1), root, opID)

	req := uploadRequest(op, sig)
	up := c.post(OpContribute, base, "/api/upload", req, http.StatusAccepted, nil, root, opID)
	if !up.ok {
		return out
	}
	out.ok = true

	const keep = 64
	if len(c.acked) < keep {
		c.acked = append(c.acked, req)
	} else {
		c.acked[c.ackedAt%keep] = req
	}
	c.ackedAt++
	rec := store.Record{Kind: store.KindUpload, Entity: op.Entity, Visit: op.Visit, Rating: req.Rating}
	c.wrote.add(&rec, !c.seenAnon[op.AnonID])
	c.seenAnon[op.AnonID] = true
	return out
}

// uploadRequest is a contribution's upload body under an unblinded
// token signature.
func uploadRequest(op *Op, sig *big.Int) rspserver.UploadRequest {
	wire := rspserver.FromRecord(*op.Visit)
	rating := op.Rating
	return rspserver.UploadRequest{
		AnonID: op.AnonID, Entity: op.Entity, Record: &wire, Rating: &rating,
		Token: rspserver.FromToken(blindsig.Token{Msg: op.Serial, Sig: sig}), Key: op.Key,
	}
}

// discover fetches what a client needs before its first op: each
// node's token key, and — as an output check — that the served
// directory is exactly the catalog.
func discover(hc *http.Client, sys *System, w *World, checks *Checks) error {
	sys.PubKeys = make(map[string]*rsa.PublicKey)
	for _, n := range sys.Nodes {
		var key rspserver.TokenKeyResponse
		if err := getJSON(hc, n.URL+"/api/token/key", &key); err != nil {
			return err
		}
		mod, ok := new(big.Int).SetString(key.N, 10)
		if !ok {
			return fmt.Errorf("%s/api/token/key: modulus is not a number", n.URL)
		}
		sys.PubKeys[n.URL] = &rsa.PublicKey{N: mod, E: key.E}
	}
	return checkDirectory(hc, sys, w, checks)
}

// checkDirectory verifies that any node's directory is the whole
// catalog: on a ring that is the gathered answer of every partition.
func checkDirectory(hc *http.Client, sys *System, w *World, checks *Checks) error {
	resp, err := hc.Get(sys.coordinator("/api/directory") + "/api/directory")
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	var dir []rspserver.WireEntity
	if err := json.NewDecoder(resp.Body).Decode(&dir); err != nil {
		return fmt.Errorf("/api/directory: %w", err)
	}
	if p := resp.Header.Get(rspserver.PartialHeader); p != "" {
		checks.failf("/api/directory: partial answer, missing partitions %s", p)
	}
	if len(dir) != len(w.Catalog) {
		checks.failf("/api/directory: %d entities, catalog has %d", len(dir), len(w.Catalog))
		return nil
	}
	for _, e := range dir {
		if w.ByKey[e.Key] == nil {
			checks.failf("/api/directory: unknown entity %q", e.Key)
			return nil
		}
	}
	return nil
}

func getJSON(hc *http.Client, url string, into any) error {
	resp, err := hc.Get(url)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET %s: status %d", url, resp.StatusCode)
	}
	if err := json.NewDecoder(resp.Body).Decode(into); err != nil {
		return fmt.Errorf("GET %s: %w", url, err)
	}
	return nil
}
