// Package anonymity implements the upload discipline of §4.2: every
// inference travels to the RSP on an independent anonymous channel, one
// per (user, entity), and uploads are delayed and batched so arrival
// timing reveals nothing ("since there is no need for real-time
// dissemination ... an RSP's app can upload all of its inferences
// asynchronously, thereby preventing timing attacks").
//
// The paper assumes the underlying anonymity network makes two channels
// unlinkable; this package supplies the discipline *around* that network
// — per-channel isolation, randomized delay, batch shuffling — plus a
// linkage adversary used by experiment E4 to verify that the discipline
// actually defeats timing correlation.
package anonymity

import (
	"crypto/rand"
	"encoding/hex"
	"sort"
	"time"

	"opinions/internal/blindsig"
	"opinions/internal/interaction"
	"opinions/internal/stats"
)

// Upload is one item in flight to the RSP on an anonymous channel: a
// detected interaction record, an inferred opinion, or both. It carries
// the anonymous history ID, the entity, a one-time upload token, an
// idempotency key — and deliberately nothing else.
type Upload struct {
	AnonID string
	Entity string
	// Record is a detected interaction to append to the anonymous
	// history (nil for opinion-only uploads).
	Record *interaction.Record
	// Rating is an inferred opinion in [0, 5] (nil for record uploads).
	Rating *float64
	Token  blindsig.Token
	// Key is the upload's idempotency key, stamped once at creation and
	// kept stable across retries, spooling, and process restarts, so the
	// server can recognize a redelivery of an already-applied upload and
	// not count the opinion twice. It is fresh randomness — unlinkable to
	// the device, the entity, or any other upload — so it leaks nothing
	// beyond the AnonID it travels with.
	Key string
}

// NewUploadKey draws a fresh idempotency key. Keys must be globally
// unique across process restarts, so they come from crypto/rand rather
// than the agent's deterministic stream: a reseeded RNG would reissue
// the first process's keys and the server would silently drop the
// second process's genuinely new uploads as replays. It never returns
// an empty key: if crypto/rand fails it panics, the contract Go's own
// crypto/rand.Read has had since Go 1.24.
func NewUploadKey() string {
	var b [16]byte
	if _, err := rand.Read(b[:]); err != nil {
		panic("anonymity: crypto/rand failed: " + err.Error())
	}
	return hex.EncodeToString(b[:])
}

// Mix delays and shuffles uploads. Each submitted upload is assigned a
// uniformly random delay in [MinDelay, MaxDelay]; Flush releases the
// uploads whose delay has elapsed, in shuffled order. Mix is not safe
// for concurrent use; the client agent owns it.
type Mix struct {
	minDelay time.Duration
	maxDelay time.Duration
	rng      *stats.RNG

	pending []pendingUpload
}

type pendingUpload struct {
	due time.Time
	u   Upload
}

// NewMix returns a mix with the given delay window. A zero maxDelay
// defaults to 6 hours — long enough to smear a dinner-time inference
// across the evening, short enough that recommendations stay fresh.
func NewMix(minDelay, maxDelay time.Duration, rng *stats.RNG) *Mix {
	if maxDelay <= 0 {
		maxDelay = 6 * time.Hour
	}
	if minDelay < 0 {
		minDelay = 0
	}
	if minDelay > maxDelay {
		minDelay = maxDelay
	}
	return &Mix{minDelay: minDelay, maxDelay: maxDelay, rng: rng}
}

// Submit queues an upload at time now.
func (m *Mix) Submit(u Upload, now time.Time) {
	window := m.maxDelay - m.minDelay
	delay := m.minDelay
	if window > 0 {
		delay += time.Duration(m.rng.Float64() * float64(window))
	}
	m.pending = append(m.pending, pendingUpload{due: now.Add(delay), u: u})
}

// Flush returns every upload whose delay has elapsed as of now, in
// shuffled order, and removes them from the queue.
func (m *Mix) Flush(now time.Time) []Upload {
	var due []Upload
	kept := m.pending[:0]
	for _, p := range m.pending {
		if !p.due.After(now) {
			due = append(due, p.u)
		} else {
			kept = append(kept, p)
		}
	}
	m.pending = kept
	m.rng.Shuffle(len(due), func(i, j int) { due[i], due[j] = due[j], due[i] })
	return due
}

// Pending returns the number of queued uploads.
func (m *Mix) Pending() int { return len(m.pending) }

// Drain returns every queued upload regardless of remaining delay, in
// shuffled order, emptying the queue. Agents about to terminate use it
// to hand the queue to durable storage instead of losing it.
func (m *Mix) Drain() []Upload {
	out := make([]Upload, len(m.pending))
	for i, p := range m.pending {
		out[i] = p.u
	}
	m.pending = nil
	m.rng.Shuffle(len(out), func(i, j int) { out[i], out[j] = out[j], out[i] })
	return out
}

// ---------------------------------------------------------------------
// Linkage adversary (evaluation harness, not a system component).
// ---------------------------------------------------------------------

// ChannelTrace is what a network observer sees of one anonymous channel:
// only arrival times, by construction.
type ChannelTrace struct {
	AnonID   string
	Arrivals []time.Time
}

// LinkScore measures temporal correlation between two channels: the
// fraction of arrivals on a that have an arrival on b within eps. A
// timing attack links channels whose score is high. Arrivals must be
// sorted ascending.
func LinkScore(a, b []time.Time, eps time.Duration) float64 {
	if len(a) == 0 || len(b) == 0 {
		return 0
	}
	matched := 0
	for _, t := range a {
		i := sort.Search(len(b), func(i int) bool { return !b[i].Before(t) })
		ok := false
		if i < len(b) && b[i].Sub(t) <= eps {
			ok = true
		}
		if i > 0 && t.Sub(b[i-1]) <= eps {
			ok = true
		}
		if ok {
			matched++
		}
	}
	return float64(matched) / float64(len(a))
}

// Adversary attempts to pair up channels belonging to the same user by
// timing correlation. For each channel it picks the other channel with
// the highest link score; Accuracy is the fraction of channels whose
// best match truly belongs to the same user.
type Adversary struct {
	// Epsilon is the coincidence window (default 2 minutes, roughly the
	// spacing of a client's un-mixed uploads).
	Epsilon time.Duration
}

// LinkAll returns, for each channel index, the index of its best-scoring
// other channel (or -1 when every score is zero).
func (adv Adversary) LinkAll(traces []ChannelTrace) []int {
	eps := adv.Epsilon
	if eps <= 0 {
		eps = 2 * time.Minute
	}
	out := make([]int, len(traces))
	for i := range traces {
		best, bestScore := -1, 0.0
		for j := range traces {
			if i == j {
				continue
			}
			s := LinkScore(traces[i].Arrivals, traces[j].Arrivals, eps)
			if s > bestScore {
				best, bestScore = j, s
			}
		}
		out[i] = best
	}
	return out
}

// Accuracy scores a linking against ground truth ownership: owners[i] is
// the true user of channel i. A channel counts as compromised when its
// best match belongs to the same user. Channels with no match count as
// safe.
func Accuracy(links []int, owners []string) float64 {
	if len(links) == 0 {
		return 0
	}
	hit := 0
	for i, j := range links {
		if j >= 0 && owners[i] == owners[j] {
			hit++
		}
	}
	return float64(hit) / float64(len(links))
}
