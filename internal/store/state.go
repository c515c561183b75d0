package store

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"opinions/internal/aggregate"
	"opinions/internal/history"
	"opinions/internal/inference"
	"opinions/internal/reviews"
	"opinions/internal/storage"
)

// state is the materialized server state the log describes: the striped
// read stores, the exactly-once ledger, and the training set + model.
// Mutation happens only through apply, which the Store serializes under
// its commit lock; reads go straight to the striped stores and never
// take that lock.
type state struct {
	reviews   *reviews.Store
	opinions  *aggregate.OpinionStore
	histories *history.ServerStore
	ledger    *Ledger

	trainMu   sync.RWMutex
	trainX    [][]float64
	trainY    []float64
	trainCats []string
	models    *inference.ModelSet
}

func newState() *state {
	return &state{
		reviews:   reviews.NewStore(),
		opinions:  aggregate.NewOpinionStore(),
		histories: history.NewServerStore(),
		ledger:    NewLedger(DefaultDedupCapacity),
	}
}

// apply executes one record against the state. It must be
// deterministic — replaying the same records in the same order over the
// same starting state reproduces the same end state — and it must fail
// before mutating anything, or not at all: a record that half-applies
// would be logged (or skipped) as a unit and replay would diverge.
// Each kind therefore orders its only fallible step first.
func (st *state) apply(rec *Record) error {
	switch rec.Kind {
	case KindUpload:
		if rec.Visit != nil {
			if err := st.histories.Append(rec.AnonID, rec.Entity, *rec.Visit); err != nil {
				return err
			}
		}
		if rec.Rating != nil {
			st.opinions.Add(rec.Entity, *rec.Rating)
		}
		if rec.Key != "" {
			st.ledger.Commit(rec.Key)
		}
		return nil
	case KindReview:
		if rec.Review == nil {
			return errors.New("store: review record without a review")
		}
		posted, err := st.reviews.Post(*rec.Review)
		if err != nil {
			return err
		}
		// The record carries the ID Commit assigned before marshaling;
		// Post honors it, so replay — whose stripe interleaving may
		// differ from the live run — reproduces the acknowledged IDs.
		rec.out = posted
		return nil
	case KindTrainPair:
		st.trainMu.Lock()
		defer st.trainMu.Unlock()
		st.trainX = append(st.trainX, append([]float64(nil), rec.Features...))
		st.trainY = append(st.trainY, rec.TrainRating)
		st.trainCats = append(st.trainCats, rec.Category)
		return nil
	case KindRetrain:
		st.trainMu.Lock()
		defer st.trainMu.Unlock()
		// Training is pure linear algebra over the pairs accumulated so
		// far, so replaying the retrain record at the same log position
		// reproduces the same model — the record need not carry it.
		set, err := inference.TrainSet(st.trainX, st.trainY, st.trainCats, 1.0, 0)
		if err != nil {
			return err
		}
		st.models = set
		rec.out = set
		return nil
	case KindSweep:
		// The record names the dropped IDs rather than re-running the
		// detector: mid-replay the profile would be built from partial
		// state and could flag a different set. Only histories on
		// rec.Entity are dropped — the ones its stripe orders.
		if rec.Entity == "" && len(rec.Dropped) > 0 {
			return errors.New("store: sweep record drops histories but names no entity")
		}
		for _, id := range rec.Dropped {
			st.histories.Drop(id, rec.Entity)
		}
		return nil
	default:
		return fmt.Errorf("store: unknown record kind %q", rec.Kind)
	}
}

// dump captures the state as a snapshot. The caller decides what WAL
// sequence the snapshot represents and whether dump needs the commit
// lock for a consistent cut.
func (st *state) dump(now time.Time) *storage.Snapshot {
	st.trainMu.RLock()
	trainX := make([][]float64, len(st.trainX))
	for i, x := range st.trainX {
		trainX[i] = append([]float64(nil), x...)
	}
	trainY := append([]float64(nil), st.trainY...)
	trainCats := append([]string(nil), st.trainCats...)
	models := st.models
	st.trainMu.RUnlock()
	return &storage.Snapshot{
		SavedAt:   now,
		Reviews:   st.reviews.All(),
		Opinions:  st.opinions.Dump(),
		Histories: st.histories.Dump(),
		DedupKeys: st.ledger.Dump(),
		TrainX:    trainX,
		TrainY:    trainY,
		TrainCats: trainCats,
		Models:    models,
	}
}

// restore replaces the state with the snapshot's contents.
func (st *state) restore(snap *storage.Snapshot) error {
	if len(snap.TrainX) != len(snap.TrainY) || len(snap.TrainCats) != len(snap.TrainY) {
		return fmt.Errorf("store: snapshot holds %d training rows, %d ratings and %d categories",
			len(snap.TrainX), len(snap.TrainY), len(snap.TrainCats))
	}
	if err := st.histories.Restore(snap.Histories); err != nil {
		return err
	}
	st.reviews.Restore(snap.Reviews)
	st.opinions.Restore(snap.Opinions)
	// Restoring the ledger with the stores keeps exactly-once across a
	// restart: a spooled upload accepted just before the snapshot is
	// still recognized as applied when redelivered.
	st.ledger.Restore(snap.DedupKeys)
	st.trainMu.Lock()
	defer st.trainMu.Unlock()
	st.trainX = make([][]float64, len(snap.TrainX))
	for i, x := range snap.TrainX {
		st.trainX[i] = append([]float64(nil), x...)
	}
	st.trainY = append([]float64(nil), snap.TrainY...)
	st.trainCats = append([]string(nil), snap.TrainCats...)
	st.models = snap.Models
	return nil
}
