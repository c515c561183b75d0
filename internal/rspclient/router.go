package rspclient

import (
	"crypto/rsa"
	"errors"
	"fmt"
	"math/big"
	"net/http"
	"strings"
	"time"

	"opinions/internal/cluster"
	"opinions/internal/inference"
	"opinions/internal/resilience"
	"opinions/internal/rspserver"
	"opinions/internal/stripe"
	"opinions/internal/world"
)

// Router is the cluster-aware Transport: one failover HTTPTransport per
// partition (the partition's preferred node as BaseURL, its followers
// as Fallbacks), with every call routed to the partition that owns its
// key. Keyed calls — uploads, reviews — go to the entity's home;
// unkeyed reads go to any partition (the server's scatter-gather makes
// every node a whole-cluster coordinator); token signing routes by
// device so per-device rate accounting stays on one node; training
// pairs route by category so each partition accumulates the corpus for
// the categories it owns.
//
// The ring can go stale — a resharded cluster, a hand-edited config —
// and the server's ownership gate is the safety net: a 421 refusal
// carries the owner's address, and the Router retries the call there
// once before giving up. The retry is deliberately not sticky: the
// next call trusts the ring again, so a transient disagreement heals
// while a persistent one keeps surfacing (and counting) misroutes.
type Router struct {
	ring  *cluster.Ring
	parts []*HTTPTransport
	opts  RouterOptions
}

// RouterOptions tunes the per-partition transports.
type RouterOptions struct {
	// Client is shared by all partition transports; nil uses the
	// package default (30s overall timeout).
	Client *http.Client
	// Retry overrides DefaultRetry on every partition transport.
	Retry *resilience.Policy
	// ReprobeAfter is passed through to each partition transport.
	ReprobeAfter time.Duration
}

// NewRouter builds a Router over a validated ring.
func NewRouter(ring *cluster.Ring, opts RouterOptions) *Router {
	parts := make([]*HTTPTransport, ring.NumPartitions())
	for p := range parts {
		nodes := ring.Nodes(p)
		parts[p] = &HTTPTransport{
			BaseURL:      nodes[0],
			Fallbacks:    nodes[1:],
			Client:       opts.Client,
			Retry:        opts.Retry,
			ReprobeAfter: opts.ReprobeAfter,
		}
	}
	return &Router{ring: ring, parts: parts, opts: opts}
}

// Ring returns the routing descriptor.
func (r *Router) Ring() *cluster.Ring { return r.ring }

// forKey returns the transport owning an entity key.
func (r *Router) forKey(key string) *HTTPTransport {
	return r.parts[r.ring.Partition(key)]
}

// redirected retries a call once against the owner a 421 refusal
// named. Any other error (including a second 421) passes through.
func (r *Router) redirected(err error, call func(t *HTTPTransport) error) error {
	var se *StatusError
	if !errors.As(err, &se) || se.Code != http.StatusMisdirectedRequest || se.PartitionNode == "" {
		return err
	}
	metricMisrouteRetries.Inc()
	owner := &HTTPTransport{
		BaseURL: se.PartitionNode,
		Client:  r.opts.Client,
		Retry:   r.opts.Retry,
	}
	return call(owner)
}

// anyPartition tries a call on each partition in order until one
// succeeds; with the scatter-gather coordinator on every node the first
// live partition answers for the whole cluster.
func anyPartition[T any](r *Router, call func(t *HTTPTransport) (T, error)) (T, error) {
	var (
		out  T
		errs []string
	)
	for _, t := range r.parts {
		v, err := call(t)
		if err == nil {
			return v, nil
		}
		errs = append(errs, err.Error())
	}
	return out, fmt.Errorf("rspclient: all %d partitions failed: %s",
		len(r.parts), strings.Join(errs, "; "))
}

// FetchDirectory implements Transport. Any node coordinates the
// cluster-wide directory.
func (r *Router) FetchDirectory() ([]*world.Entity, error) {
	return anyPartition(r, func(t *HTTPTransport) ([]*world.Entity, error) {
		return t.FetchDirectory()
	})
}

// FetchModel implements Transport. Models are trained per partition on
// the training pairs it owns; the first live partition's model set
// serves — fleet-wide inference tolerates per-partition skew the same
// way it tolerates model staleness between retrains.
func (r *Router) FetchModel() (*inference.ModelSet, error) {
	return anyPartition(r, func(t *HTTPTransport) (*inference.ModelSet, error) {
		return t.FetchModel()
	})
}

// FetchTokenKey implements Transport. A cluster shares one issuer key
// (every node must redeem every node's tokens), so any partition
// answers.
func (r *Router) FetchTokenKey() (*rsa.PublicKey, error) {
	return anyPartition(r, func(t *HTTPTransport) (*rsa.PublicKey, error) {
		return t.FetchTokenKey()
	})
}

// SignToken implements Transport, routing by device so one node sees a
// device's whole token stream and its rate limit holds.
func (r *Router) SignToken(device string, blinded *big.Int) (*big.Int, error) {
	t := r.parts[stripe.IndexN(device, len(r.parts))]
	return t.SignToken(device, blinded)
}

// Upload implements Transport, routing by the upload's entity key.
func (r *Router) Upload(req rspserver.UploadRequest) error {
	err := r.forKey(req.Entity).Upload(req)
	if err == nil {
		return nil
	}
	return r.redirected(err, func(t *HTTPTransport) error { return t.Upload(req) })
}

// PostReview implements Transport, routing by entity key.
func (r *Router) PostReview(entity, author string, rating float64, text string) error {
	err := r.forKey(entity).PostReview(entity, author, rating, text)
	if err == nil {
		return nil
	}
	return r.redirected(err, func(t *HTTPTransport) error {
		return t.PostReview(entity, author, rating, text)
	})
}

// SubmitTraining implements Transport, routing by category so each
// partition trains per-category models from a complete slice.
func (r *Router) SubmitTraining(features []float64, rating float64, category string) error {
	t := r.parts[stripe.IndexN(category, len(r.parts))]
	return t.SubmitTraining(features, rating, category)
}

// Retrain fans the retrain to every partition. Each node's retrain is
// one record in its own log, ordered after the training pairs that
// node holds, so the cluster-wide operation is N independent retrains;
// partitions that fail are reported together and can be retried —
// retraining is idempotent on a quiet corpus.
func (r *Router) Retrain() error {
	var errs []string
	for p, t := range r.parts {
		var m inference.ModelSet
		if err := t.postJSON("/api/model/retrain", struct{}{}, &m); err != nil {
			errs = append(errs, fmt.Sprintf("partition %d: %v", p, err))
		}
	}
	if len(errs) > 0 {
		return fmt.Errorf("rspclient: retrain: %s", strings.Join(errs, "; "))
	}
	return nil
}

// FraudSweep fans the §4.3 fraud sweep to every partition and sums the
// per-partition results. Each leg commits one drop record per affected
// entity on that node, so a leg cut short leaves a smaller sweep; a
// failed partition fails the whole call so the operator re-runs it —
// sweeping is safe to repeat — rather than trusting a half-swept
// cluster.
func (r *Router) FraudSweep() (scanned, discarded int, err error) {
	var errs []string
	for p, t := range r.parts {
		var resp rspserver.SweepResponse
		if err := t.postJSON("/api/fraud/sweep", struct{}{}, &resp); err != nil {
			errs = append(errs, fmt.Sprintf("partition %d: %v", p, err))
			continue
		}
		scanned += resp.Scanned
		discarded += resp.Discarded
	}
	if len(errs) > 0 {
		return scanned, discarded, fmt.Errorf("rspclient: fraud sweep: %s", strings.Join(errs, "; "))
	}
	return scanned, discarded, nil
}
