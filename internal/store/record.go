package store

import (
	"opinions/internal/interaction"
	"opinions/internal/reviews"
)

// Kind discriminates write-ahead-log records. Every server mutation is
// exactly one record; replaying the records in sequence order over a
// snapshot reconstructs the state byte for byte.
type Kind string

// The record kinds, one per mutation path.
const (
	// KindUpload is an applied anonymous upload: an interaction record
	// appended to a history, an inferred rating added to an entity's
	// opinions, or both, plus the admission of the upload's idempotency
	// key into the exactly-once ledger.
	KindUpload Kind = "upload"
	// KindReview is a posted explicit review.
	KindReview Kind = "review"
	// KindTrainPair is one volunteered training example.
	KindTrainPair Kind = "train_pair"
	// KindRetrain is a model retrain over the accumulated pairs. The
	// record carries no model — training is deterministic, and the
	// record commits on the training pairs' stripe, so replay
	// reproduces it from the pairs replayed before it.
	KindRetrain Kind = "retrain"
	// KindSweep is a fraud sweep's verdict on one entity: the anonymous
	// IDs of that entity's histories it dropped, not the detector
	// inputs, so replay cannot diverge even if the detector's profile
	// would differ mid-replay. A sweep touching several entities
	// commits one record per entity.
	KindSweep Kind = "sweep"
)

// Record is one logged mutation. Exactly the fields of its Kind are
// set; the rest stay zero and are omitted from the wire form.
//
// By design a record carries no user identity: uploads are logged under
// the same anonymous history ID the server stores them under (§4.2),
// idempotency keys are client-drawn randomness, and reviews name only
// the public pseudonym their author chose to post under. The WAL is
// therefore exactly as privacy-sensitive as a snapshot — no more.
type Record struct {
	// Seq is the record's position in its commit stripe's log, assigned
	// by Commit and carried in the frame header rather than the JSON
	// payload (so the payload can be marshaled before the sequence is
	// known). Each stripe numbers its own records from 1; the pair
	// (stripe, seq) identifies a record globally.
	Seq uint64 `json:"-"`

	Kind Kind `json:"kind"`

	// KindUpload fields; Entity also names a KindSweep record's entity.
	AnonID string              `json:"anon_id,omitempty"`
	Entity string              `json:"entity,omitempty"`
	Visit  *interaction.Record `json:"visit,omitempty"`
	Rating *float64            `json:"rating,omitempty"`
	// Key is the upload's idempotency key. The server refuses an upload
	// without one; a record committed directly through Commit may leave
	// it empty, and then admits nothing to the ledger.
	Key string `json:"key,omitempty"`

	// KindReview field: the review as submitted. Commit assigns the ID
	// before marshaling, so the logged payload carries it and a replay —
	// which may interleave stripes differently than the live run —
	// reproduces the exact ID each review was acknowledged with.
	Review *reviews.Review `json:"review,omitempty"`

	// KindTrainPair fields.
	Features    []float64 `json:"features,omitempty"`
	TrainRating float64   `json:"train_rating,omitempty"`
	Category    string    `json:"category,omitempty"`

	// KindSweep field: the anonymous IDs of Entity's histories the
	// sweep discarded. A non-empty list needs an Entity.
	Dropped []string `json:"dropped,omitempty"`

	// out carries the apply's product back to the committer (the posted
	// review with its ID, the freshly trained model set). Never
	// serialized; meaningless after replay.
	out any
}

// Result returns what applying the record produced: the stored
// reviews.Review for KindReview, the *inference.ModelSet for
// KindRetrain, nil otherwise.
func (r *Record) Result() any { return r.out }
