package rspserver

// Cluster support: the server-side half of multi-node partitioning.
//
// Two middlewares make one rspd node a well-behaved member of a
// cluster.Ring:
//
//   - WithOwnershipGate refuses keyed requests for entities this
//     partition does not own with 421 Misdirected Request plus an
//     X-Partition-Node header naming the owner, so a client holding a
//     stale or missing ring self-corrects in one round trip.
//
//   - WithScatterGather turns any node into a read coordinator: an
//     incoming GET /api/search or /api/directory fans out to every
//     partition (itself included, served in-process), merges and
//     re-ranks the partial answers, and responds with the cluster-wide
//     view. Fanout legs carry X-Cluster-Local so they are answered
//     from the receiving partition's own slice — never re-fanned.
//     Partitions that fail or miss the per-partition deadline are
//     skipped and named in X-Cluster-Partial: a partial answer now
//     beats a timeout, and the header lets callers decide.

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"opinions/internal/cluster"
	"opinions/internal/obs"
	"opinions/internal/world"
)

// Cluster protocol headers.
const (
	// ClusterLocalHeader marks a scatter-gather fanout leg: answer from
	// this partition's own slice, do not coordinate.
	ClusterLocalHeader = "X-Cluster-Local"
	// PartitionNodeHeader names the owning partition's preferred node on
	// a 421 misroute refusal.
	PartitionNodeHeader = "X-Partition-Node"
	// PartialHeader lists the partition ids (comma-separated) missing
	// from a gathered response.
	PartialHeader = "X-Cluster-Partial"
	// FanoutHeader reports how many partitions a gathered response
	// consulted.
	FanoutHeader = "X-Cluster-Fanout"
)

var (
	metricClusterMisroutes = obs.Default.Counter("cluster_misroutes_total",
		"Keyed requests refused with 421 because another partition owns the key.")
	metricClusterFanouts = obs.Default.CounterVec("cluster_fanout_total",
		"Scatter-gather coordinations served, by route.",
		"route")
	metricClusterPartials = obs.Default.Counter("cluster_fanout_partials_total",
		"Gathered responses missing at least one partition.")
	metricClusterFanoutSeconds = obs.Default.HistogramVec("cluster_fanout_partition_seconds",
		"Per-partition scatter-gather leg latency in seconds, by partition.",
		nil, "partition")
	metricClusterGatherCacheHits = obs.Default.Counter("cluster_gather_cache_hits_total",
		"Directory requests served from the coordinator's kept complete merges.")
)

// WithOwnershipGate refuses keyed requests whose entity another
// partition owns: 421 Misdirected Request, the owner's preferred node
// in X-Partition-Node, and a JSON error naming the partition. Requests
// without an extractable key pass through — the handlers' own
// validation answers those. Reads and writes are both gated: this
// node's stores simply do not hold a foreign entity, so serving the
// read would invent an empty answer, and accepting the write would
// strand it outside the owner's history.
func WithOwnershipGate(ring *cluster.Ring, self int) Middleware {
	return func(next http.Handler) http.Handler {
		return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			key := requestEntityKey(r)
			if key == "" || ring.Owns(self, key) {
				next.ServeHTTP(w, r)
				return
			}
			p := ring.Partition(key)
			node := ring.Preferred(p)
			metricClusterMisroutes.Inc()
			w.Header().Set(PartitionNodeHeader, node)
			writeJSON(w, http.StatusMisdirectedRequest, ErrorResponse{
				Error: fmt.Sprintf("rspserver: entity %q belongs to partition %d (%s), not this node", key, p, node),
			})
		})
	}
}

// requestEntityKey extracts the routing key from the keyed routes: the
// entity query parameter on reads, the entity field of the JSON body on
// writes. Unkeyed routes return "".
func requestEntityKey(r *http.Request) string {
	switch {
	case r.URL.Path == "/api/entity" && r.Method == http.MethodGet:
		return r.URL.Query().Get("key")
	case r.URL.Path == "/api/reviews" && r.Method == http.MethodGet:
		return r.URL.Query().Get("entity")
	case (r.URL.Path == "/api/reviews" || r.URL.Path == "/api/upload") && r.Method == http.MethodPost:
		return peekEntity(r)
	}
	return ""
}

// peekEntity reads the request body to extract its entity field, then
// restores the body so the handler decodes it unchanged. Oversized or
// malformed bodies return "" — the handler's own MaxBytesReader and
// decoder produce the right error; the gate only needs the key when
// there is one.
func peekEntity(r *http.Request) string {
	body, err := io.ReadAll(io.LimitReader(r.Body, maxRequestBody+1))
	r.Body.Close()
	r.Body = io.NopCloser(bytes.NewReader(body))
	if err != nil || int64(len(body)) > maxRequestBody {
		return ""
	}
	var probe struct {
		Entity string `json:"entity"`
	}
	if json.Unmarshal(body, &probe) != nil {
		return ""
	}
	return probe.Entity
}

// GatherOptions tunes the scatter-gather coordinator.
type GatherOptions struct {
	// Timeout is the per-partition budget: a partition that has not
	// answered — across however many of its nodes were tried — within
	// this window is reported partial. Default 2s.
	Timeout time.Duration
}

// maxGatherBody bounds one fanout leg's response (a paper-scale full
// directory is ~15 MB; 64 MiB leaves headroom without letting a
// misbehaving peer balloon the coordinator).
const maxGatherBody = 64 << 20

// WithScatterGather makes this node a read coordinator for GET
// /api/search and /api/directory: fan the query out to every partition
// (the node's own partition answers in-process), merge, and re-rank.
// Requests carrying ClusterLocalHeader are fanout legs from another
// coordinator and pass straight through to the local slice.
//
// A search is gathered on every request, so it reflects a commit as
// soon as a single node would. A directory comes only from the catalog,
// and the catalog and the ring are both fixed at boot, so a complete
// directory merge is kept per service filter and never expires.
func WithScatterGather(ring *cluster.Ring, self int, opts GatherOptions) Middleware {
	// Timeouts come from the per-partition context, not the client.
	client := &http.Client{Transport: &http.Transport{
		MaxIdleConns:        4 * ring.NumPartitions(),
		MaxIdleConnsPerHost: 4,
	}}
	timeout := opts.Timeout
	if timeout <= 0 {
		timeout = 2 * time.Second
	}
	// dirs maps a service filter to its complete directory merge, as
	// encoded JSON.
	dirs := &sync.Map{}
	return func(next http.Handler) http.Handler {
		return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			route := r.URL.Path
			if r.Method != http.MethodGet ||
				(route != "/api/search" && route != "/api/directory") ||
				r.Header.Get(ClusterLocalHeader) != "" {
				next.ServeHTTP(w, r)
				return
			}
			gather(w, r, next, ring, self, client, timeout, dirs)
		})
	}
}

// leg is one partition's contribution to a gathered response.
type leg struct {
	body []byte
	ok   bool
}

func gather(w http.ResponseWriter, r *http.Request, next http.Handler,
	ring *cluster.Ring, self int, client *http.Client, timeout time.Duration,
	dirs *sync.Map) {
	n := ring.NumPartitions()
	uri := r.URL.RequestURI()
	isDir := r.URL.Path == "/api/directory"
	svc := r.URL.Query().Get("service")
	if isDir {
		if body, ok := dirs.Load(svc); ok {
			metricClusterGatherCacheHits.Inc()
			w.Header().Set(FanoutHeader, strconv.Itoa(n))
			writeJSONBytes(w, http.StatusOK, body.([]byte))
			return
		}
	}
	legs := make([]leg, n)
	var wg sync.WaitGroup
	for p := 0; p < n; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			ctx, cancel := context.WithTimeout(r.Context(), timeout)
			defer cancel()
			t0 := time.Now()
			if p == self {
				legs[p] = localLeg(next, r, ctx)
			} else {
				legs[p] = remoteLeg(ctx, client, ring.Nodes(p), uri)
			}
			metricClusterFanoutSeconds.With(strconv.Itoa(p)).Observe(time.Since(t0).Seconds())
		}(p)
	}
	wg.Wait()

	var missed []string
	merge := func(decodeAppend func(body []byte) bool) {
		for p, l := range legs {
			if !l.ok || !decodeAppend(l.body) {
				missed = append(missed, strconv.Itoa(p))
			}
		}
	}

	var payload any
	keep := false
	if isDir {
		all := []WireEntity{}
		merge(func(body []byte) bool {
			var es []WireEntity
			if json.Unmarshal(body, &es) != nil {
				return false
			}
			all = append(all, es...)
			return true
		})
		sort.Slice(all, func(i, j int) bool { return all[i].Key < all[j].Key })
		payload = all
		// An unknown filter merges to [] and is not kept, so callers
		// cannot mint entries.
		keep = len(all) > 0
	} else {
		var all []WireResult
		merge(func(body []byte) bool {
			var rs []WireResult
			if json.Unmarshal(body, &rs) != nil {
				return false
			}
			all = append(all, rs...)
			return true
		})
		payload = mergeSearch(all, r.URL.Query().Get("limit"))
	}

	metricClusterFanouts.With(strings.TrimPrefix(r.URL.Path, "/api/")).Inc()
	if len(missed) == n {
		writeErr(w, http.StatusServiceUnavailable,
			fmt.Errorf("rspserver: no partition answered within %v", timeout))
		return
	}
	body, err := encodeJSON(payload)
	if err != nil {
		writeErr(w, http.StatusInternalServerError, err)
		return
	}
	w.Header().Set(FanoutHeader, strconv.Itoa(n))
	if len(missed) > 0 {
		// A partial merge is never kept: an outage must not outlive the
		// node that caused it.
		metricClusterPartials.Inc()
		w.Header().Set(PartialHeader, strings.Join(missed, ","))
	} else if keep {
		dirs.Store(svc, body)
	}
	writeJSONBytes(w, http.StatusOK, body)
}

// mergeSearch re-ranks the union of per-partition results exactly as
// one node ranks its own: score descending, entity key ascending on
// ties (the engine tie-breaks on entity ID; within one service the
// orders agree, and across services the key prefix makes the order
// deterministic). Partitions own disjoint key ranges, so duplicates
// only appear under a misconfigured ring; the higher-scoring copy wins.
func mergeSearch(all []WireResult, limitStr string) []WireResult {
	sort.Slice(all, func(i, j int) bool {
		if all[i].Score != all[j].Score {
			return all[i].Score > all[j].Score
		}
		return all[i].Entity.Key < all[j].Entity.Key
	})
	merged := all[:0]
	seen := make(map[string]bool, len(all))
	for _, res := range all {
		if seen[res.Entity.Key] {
			continue
		}
		seen[res.Entity.Key] = true
		merged = append(merged, res)
	}
	if limit, err := strconv.Atoi(limitStr); err == nil && limit > 0 && limit < len(merged) {
		merged = merged[:limit]
	}
	if merged == nil {
		merged = []WireResult{}
	}
	return merged
}

// localLeg serves a fanout leg from this node's own slice, in-process:
// the cloned request carries ClusterLocalHeader so the inner handler
// answers locally, and the response lands in a buffer instead of the
// client connection. A panic in the local handler fails just this leg
// (the request goroutine's recovery middleware cannot see a gather
// goroutine).
func localLeg(next http.Handler, r *http.Request, ctx context.Context) (l leg) {
	defer func() {
		if recover() != nil {
			l = leg{}
		}
	}()
	req := r.Clone(ctx)
	req.Header.Set(ClusterLocalHeader, "1")
	buf := &bufferedResponse{header: make(http.Header), status: http.StatusOK}
	next.ServeHTTP(buf, req)
	if buf.status != http.StatusOK {
		return leg{}
	}
	return leg{body: buf.buf.Bytes(), ok: true}
}

// remoteLeg fetches one partition's slice, walking its nodes in
// preference order under the partition's shared deadline: a hung
// preferred node consumes the budget (and the partition goes partial),
// while a cleanly refused connection falls through to a follower
// immediately.
func remoteLeg(ctx context.Context, client *http.Client, nodes []string, uri string) leg {
	for _, node := range nodes {
		if ctx.Err() != nil {
			return leg{}
		}
		req, err := http.NewRequestWithContext(ctx, http.MethodGet, node+uri, nil)
		if err != nil {
			continue
		}
		req.Header.Set(ClusterLocalHeader, "1")
		resp, err := client.Do(req)
		if err != nil {
			continue
		}
		body, err := io.ReadAll(io.LimitReader(resp.Body, maxGatherBody+1))
		resp.Body.Close()
		if err != nil || resp.StatusCode != http.StatusOK || len(body) > maxGatherBody {
			continue
		}
		return leg{body: body, ok: true}
	}
	return leg{}
}

// bufferedResponse captures an in-process handler's response for the
// local fanout leg.
type bufferedResponse struct {
	header http.Header
	status int
	buf    bytes.Buffer
}

func (b *bufferedResponse) Header() http.Header { return b.header }

func (b *bufferedResponse) WriteHeader(status int) { b.status = status }

func (b *bufferedResponse) Write(p []byte) (int, error) { return b.buf.Write(p) }

// FilterCatalog returns the entities partition p owns — the slice of
// the full catalog a clustered node serves. Every node builds the same
// full catalog deterministically (same world seed) and keeps only its
// share, so the union across partitions is exactly the whole directory.
func FilterCatalog(ring *cluster.Ring, p int, catalog []*world.Entity) []*world.Entity {
	owned := make([]*world.Entity, 0, len(catalog)/ring.NumPartitions()+1)
	for _, e := range catalog {
		if ring.Owns(p, e.Key()) {
			owned = append(owned, e)
		}
	}
	return owned
}
