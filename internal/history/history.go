// Package history implements the paper's two-tier, privacy-preserving
// storage of interaction histories (§4.2).
//
// Client side, the device keeps only a *recent snapshot*: "an RSP [should]
// store only a recent snapshot of any user's inferred interactions on her
// device and store the rest of the user's long-term history at the RSP's
// servers" — so a stolen phone leaks only recent interactions.
//
// Server side, each (user, entity) pair's history lives under the
// anonymous identifier hash(Ru, e), where Ru is a random number that
// never leaves the device. Two properties follow, both tested here:
//
//  1. Unlinkability: histories of the same user for two entities share
//     nothing the server can correlate.
//  2. Update-only access: the server supports appends but no retrieval
//     by identifier, so even a leaked Ru cannot be used to read a user's
//     history back out.
package history

import (
	"crypto/hmac"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"slices"
	"sort"
	"strings"
	"sync"
	"time"

	"opinions/internal/interaction"
	"opinions/internal/stripe"
)

// AnonID derives the anonymous history identifier for (Ru, entity):
// HMAC-SHA256(Ru, entityKey), hex encoded. The HMAC keys the hash with
// the device secret so the server — which knows every entity key —
// cannot enumerate candidate IDs.
func AnonID(ru []byte, entityKey string) string {
	mac := hmac.New(sha256.New, ru)
	mac.Write([]byte(entityKey))
	return hex.EncodeToString(mac.Sum(nil))
}

// ClientStore is the on-device snapshot: interaction records retained
// only for a bounded window ("the RSP's app purges an entry from the
// user's history once the entry is older than a configurable threshold").
// ClientStore is safe for concurrent use.
type ClientStore struct {
	retention time.Duration

	mu   sync.Mutex
	recs map[string][]interaction.Record // entity key → records, time-ordered
}

// NewClientStore returns a store that retains records for the given
// duration (default 30 days when non-positive).
func NewClientStore(retention time.Duration) *ClientStore {
	if retention <= 0 {
		retention = 30 * 24 * time.Hour
	}
	return &ClientStore{
		retention: retention,
		recs:      make(map[string][]interaction.Record),
	}
}

// Add records an interaction.
func (cs *ClientStore) Add(rec interaction.Record) {
	cs.mu.Lock()
	defer cs.mu.Unlock()
	cs.recs[rec.Entity] = append(cs.recs[rec.Entity], rec)
}

// Purge drops every record older than the retention window as of now and
// returns the number dropped.
func (cs *ClientStore) Purge(now time.Time) int {
	cutoff := now.Add(-cs.retention)
	cs.mu.Lock()
	defer cs.mu.Unlock()
	dropped := 0
	for key, recs := range cs.recs {
		kept := recs[:0]
		for _, r := range recs {
			if r.Start.Before(cutoff) {
				dropped++
			} else {
				kept = append(kept, r)
			}
		}
		if len(kept) == 0 {
			delete(cs.recs, key)
		} else {
			cs.recs[key] = kept
		}
	}
	return dropped
}

// ForEntity returns a copy of the retained records for an entity.
func (cs *ClientStore) ForEntity(entityKey string) []interaction.Record {
	cs.mu.Lock()
	defer cs.mu.Unlock()
	return append([]interaction.Record(nil), cs.recs[entityKey]...)
}

// Entities returns the entity keys with retained records, sorted. This
// is the transparency surface (§5): the user can see exactly which
// entities the app currently holds inferences about.
func (cs *ClientStore) Entities() []string {
	cs.mu.Lock()
	defer cs.mu.Unlock()
	out := make([]string, 0, len(cs.recs))
	for k := range cs.recs {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// Forget removes every record for an entity — the §5 correction
// affordance ("enable users to correct inaccurate inferences"). It
// returns the number of records removed.
func (cs *ClientStore) Forget(entityKey string) int {
	cs.mu.Lock()
	defer cs.mu.Unlock()
	n := len(cs.recs[entityKey])
	delete(cs.recs, entityKey)
	return n
}

// Dump returns every retained record, for device-state persistence.
func (cs *ClientStore) Dump() []interaction.Record {
	cs.mu.Lock()
	defer cs.mu.Unlock()
	var out []interaction.Record
	keys := make([]string, 0, len(cs.recs))
	for k := range cs.recs {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		out = append(out, cs.recs[k]...)
	}
	return out
}

// Restore replaces the store's contents with the given records.
func (cs *ClientStore) Restore(recs []interaction.Record) {
	cs.mu.Lock()
	defer cs.mu.Unlock()
	cs.recs = make(map[string][]interaction.Record)
	for _, r := range recs {
		cs.recs[r.Entity] = append(cs.recs[r.Entity], r)
	}
}

// Len returns the total number of retained records.
func (cs *ClientStore) Len() int {
	cs.mu.Lock()
	defer cs.mu.Unlock()
	n := 0
	for _, recs := range cs.recs {
		n += len(recs)
	}
	return n
}

// EntityHistory is one anonymous per-(user, entity) record sequence as
// stored by the server. It carries no user identity; the server knows
// only that all its records came from the same (unknown) user.
type EntityHistory struct {
	AnonID  string
	Entity  string
	Records []interaction.Record
}

// ErrEntityMismatch is returned when an append names a different entity
// than the one an existing history was initialized with; a correct
// client never does this, so it indicates tampering.
var ErrEntityMismatch = errors.New("history: anonymous ID already bound to a different entity")

// ServerStore is the RSP-side anonymous history store. The public
// surface is deliberately asymmetric: Append is the only per-ID
// operation, and iteration is only by entity, because "the RSP's service
// only need support requests to update histories but not to retrieve
// them" (§4.2). ServerStore is safe for concurrent use.
//
// Internally the store is striped two ways so reads stop serializing
// behind uploads: an anonID-striped binding index (anonID → entity,
// backing the §4.2 entity-mismatch check) and an entity-striped
// history map (the aggregation read surface). Append takes an ID
// stripe then an entity stripe, always in that order, as Drop does;
// readers take only an entity stripe.
//
// Each entity's histories live in its VisitIndex, which is the store's
// state, not a cache over it: Append, Drop and Restore maintain it under
// the entity stripe's write lock, nothing rebuilds it on a read, and
// there is no other copy of the histories to fall out of step with.
// ByEntity reads it in AnonID order and ReadVisits hands it to the
// Figure-3 fold, so neither sorts.
type ServerStore struct {
	ids      [stripe.NumShards]idShard
	entities [stripe.NumShards]entityShard
}

// idShard guards the anonID → entity binding for its stripe of IDs.
type idShard struct {
	mu      sync.Mutex
	binding map[string]string
	// swept holds the bound IDs that have no history: a Drop removed it
	// and no Append has started another. Dump carries their bindings.
	swept map[string]struct{}
}

// entityShard guards the visit indexes of its stripe of entities. All
// mutation of a history's Records happens under this shard's write
// lock, so readers holding the read lock may hand out slice-header
// copies safely (records are append-only; existing elements are never
// rewritten in place).
type entityShard struct {
	mu       sync.RWMutex
	byEntity map[string]*VisitIndex
}

// VisitIndex is one entity's histories with the visit totals Figure 3
// is computed from. Every field is kept as the records arrive, so a
// read of the view is one linear pass over it.
type VisitIndex struct {
	// Histories holds one entry per history, in AnonID order.
	Histories []HistoryVisits
	// Arrivals holds the start of every visit record of every history,
	// in Unix nanoseconds, ascending.
	Arrivals []int64
}

// HistoryVisits is one history's entry in a VisitIndex.
type HistoryVisits struct {
	// Visits counts the history's visit records.
	Visits int
	// DistKm is Σ DistanceFrom/1000 over those records, added in record
	// order: the same additions a loop over the records makes, so the
	// running sum equals the recomputed one bit for bit.
	DistKm float64

	h *EntityHistory
}

// tally counts rec into the entry's totals and reports whether it was a
// visit, whose arrival the caller then records.
func (e *HistoryVisits) tally(rec interaction.Record) bool {
	if rec.Kind != interaction.VisitKind {
		return false
	}
	e.Visits++
	e.DistKm += rec.DistanceFrom / 1000
	return true
}

// IndexHistories builds the visit index of the given histories, kept in
// the order given.
func IndexHistories(hists []*EntityHistory) *VisitIndex {
	v := &VisitIndex{Histories: make([]HistoryVisits, len(hists))}
	n := 0
	for _, h := range hists {
		for _, r := range h.Records {
			if r.Kind == interaction.VisitKind {
				n++
			}
		}
	}
	v.Arrivals = make([]int64, 0, n)
	for i, h := range hists {
		e := &v.Histories[i]
		e.h = h
		for _, r := range h.Records {
			if e.tally(r) {
				v.Arrivals = append(v.Arrivals, r.Start.UnixNano())
			}
		}
	}
	slices.Sort(v.Arrivals)
	return v
}

// find returns the position of anonID among the index's histories and
// whether it is there.
func (v *VisitIndex) find(anonID string) (int, bool) {
	return slices.BinarySearchFunc(v.Histories, anonID, func(e HistoryVisits, id string) int {
		return strings.Compare(e.h.AnonID, id)
	})
}

// NewServerStore returns an empty store.
func NewServerStore() *ServerStore {
	ss := &ServerStore{}
	for i := range ss.ids {
		ss.ids[i].binding = make(map[string]string)
		ss.ids[i].swept = make(map[string]struct{})
	}
	for i := range ss.entities {
		ss.entities[i].byEntity = make(map[string]*VisitIndex)
	}
	return ss
}

func (ss *ServerStore) idShard(anonID string) *idShard {
	return &ss.ids[stripe.Index(anonID)]
}

func (ss *ServerStore) entityShard(entityKey string) *entityShard {
	return &ss.entities[stripe.Index(entityKey)]
}

// Append adds a record to the history identified by anonID, creating the
// history bound to entityKey on first use.
func (ss *ServerStore) Append(anonID, entityKey string, rec interaction.Record) error {
	if anonID == "" || entityKey == "" {
		return fmt.Errorf("history: empty identifier (anonID=%q entity=%q)", anonID, entityKey)
	}
	ids := ss.idShard(anonID)
	ids.mu.Lock()
	defer ids.mu.Unlock()
	if bound, ok := ids.binding[anonID]; ok && bound != entityKey {
		return ErrEntityMismatch
	}
	ids.binding[anonID] = entityKey
	if len(ids.swept) > 0 {
		delete(ids.swept, anonID)
	}

	es := ss.entityShard(entityKey)
	es.mu.Lock()
	defer es.mu.Unlock()
	v := es.byEntity[entityKey]
	if v == nil {
		v = &VisitIndex{}
		es.byEntity[entityKey] = v
	}
	i, ok := v.find(anonID)
	if !ok {
		v.Histories = slices.Insert(v.Histories, i, HistoryVisits{h: &EntityHistory{AnonID: anonID, Entity: entityKey}})
	}
	e := &v.Histories[i]
	e.h.Records = append(e.h.Records, rec)
	if e.tally(rec) {
		t := rec.Start.UnixNano()
		j, _ := slices.BinarySearch(v.Arrivals, t)
		v.Arrivals = slices.Insert(v.Arrivals, j, t)
	}
	return nil
}

// ByEntity returns the histories stored for an entity, ordered by
// anonymous ID. Each returned history is a fresh header whose Records
// slice snapshots the store at call time; concurrent appends create
// new history state without invalidating it. This is the RSP-internal
// aggregation surface (Figure 3, §4.3's typical-user profile); it is
// never exposed over the network API.
func (ss *ServerStore) ByEntity(entityKey string) []*EntityHistory {
	es := ss.entityShard(entityKey)
	es.mu.RLock()
	defer es.mu.RUnlock()
	var entries []HistoryVisits
	if v := es.byEntity[entityKey]; v != nil {
		entries = v.Histories
	}
	headers := make([]EntityHistory, len(entries))
	out := make([]*EntityHistory, len(entries))
	for i, e := range entries {
		headers[i] = EntityHistory{AnonID: e.h.AnonID, Entity: e.h.Entity, Records: e.h.Records}
		out[i] = &headers[i]
	}
	return out
}

// ReadVisits calls fn with an entity's visit index, under the entity
// stripe's read lock, and does not call it when the entity has no
// histories. fn must not retain or modify the index, nor call back
// into the store.
func (ss *ServerStore) ReadVisits(entityKey string, fn func(*VisitIndex)) {
	es := ss.entityShard(entityKey)
	es.mu.RLock()
	defer es.mu.RUnlock()
	if v := es.byEntity[entityKey]; v != nil {
		fn(v)
	}
}

// Entities returns all entity keys with at least one history, sorted.
func (ss *ServerStore) Entities() []string {
	var out []string
	for i := range ss.entities {
		es := &ss.entities[i]
		es.mu.RLock()
		for k := range es.byEntity {
			out = append(out, k)
		}
		es.mu.RUnlock()
	}
	sort.Strings(out)
	return out
}

// Drop removes the history anonID holds on entityKey — used by fraud
// filtering (§4.3: "Discarding interaction histories that significantly
// deviate from the activity patterns of the typical user"). An ID with
// no history on that entity is skipped. The anonID→entity binding
// outlives the history, and Dump carries it: an ID, once bound, never
// binds to another entity, across restarts and restores too, so whether
// an Append is accepted never depends on how appends and drops on
// different entities interleave, nor on when the store last restarted.
func (ss *ServerStore) Drop(anonID, entityKey string) {
	ids := ss.idShard(anonID)
	ids.mu.Lock()
	defer ids.mu.Unlock()
	es := ss.entityShard(entityKey)
	es.mu.Lock()
	defer es.mu.Unlock()
	v := es.byEntity[entityKey]
	if v == nil {
		return
	}
	i, ok := v.find(anonID)
	if !ok {
		return
	}
	var gone []int64
	for _, r := range v.Histories[i].h.Records {
		if r.Kind == interaction.VisitKind {
			gone = append(gone, r.Start.UnixNano())
		}
	}
	v.Histories = slices.Delete(v.Histories, i, i+1)
	v.Arrivals = removeSorted(v.Arrivals, gone)
	ids.swept[anonID] = struct{}{}
	if len(v.Histories) == 0 {
		delete(es.byEntity, entityKey)
	}
}

// removeSorted removes one occurrence of each of gone's values from
// the ascending slice sorted, in place, in one pass from the first
// value removed.
func removeSorted(sorted, gone []int64) []int64 {
	if len(gone) == 0 {
		return sorted
	}
	slices.Sort(gone)
	i, _ := slices.BinarySearch(sorted, gone[0])
	out := sorted[:i]
	for _, t := range sorted[i:] {
		if len(gone) > 0 && gone[0] == t {
			gone = gone[1:]
			continue
		}
		out = append(out, t)
	}
	return out
}

// Dump returns a deep copy of every history, for snapshotting, and the
// binding of every ID Drop left without one as a history with no
// records. Order is deterministic (by anonymous ID).
func (ss *ServerStore) Dump() []EntityHistory {
	var out []EntityHistory
	for i := range ss.entities {
		es := &ss.entities[i]
		es.mu.RLock()
		for _, v := range es.byEntity {
			for _, e := range v.Histories {
				out = append(out, EntityHistory{
					AnonID:  e.h.AnonID,
					Entity:  e.h.Entity,
					Records: append([]interaction.Record(nil), e.h.Records...),
				})
			}
		}
		es.mu.RUnlock()
	}
	for i := range ss.ids {
		ids := &ss.ids[i]
		ids.mu.Lock()
		for id := range ids.swept {
			out = append(out, EntityHistory{AnonID: id, Entity: ids.binding[id]})
		}
		ids.mu.Unlock()
	}
	sort.Slice(out, func(i, j int) bool { return out[i].AnonID < out[j].AnonID })
	return out
}

// Restore replaces the store's contents with the dumped histories. It
// builds every entity's visit index in bulk — a dump is already in
// AnonID order, which the sort passes over in linear time, so each
// entity costs one real sort, of its arrivals — and leaves the store
// unchanged when the histories are malformed. A history with no
// records restores only its binding, as Dump wrote it. The store takes
// ownership of each history's Records: the caller must hand over a
// freshly decoded or freshly dumped slice and not touch it afterwards.
func (ss *ServerStore) Restore(hists []EntityHistory) error {
	var bindings [stripe.NumShards]map[string]string
	var swept [stripe.NumShards]map[string]struct{}
	var groups [stripe.NumShards]map[string][]*EntityHistory
	for i := range bindings {
		bindings[i] = make(map[string]string, len(hists)/stripe.NumShards)
		swept[i] = make(map[string]struct{})
		groups[i] = make(map[string][]*EntityHistory)
	}
	for _, h := range hists {
		if h.AnonID == "" || h.Entity == "" {
			return fmt.Errorf("history: restoring malformed history (anonID=%q entity=%q)", h.AnonID, h.Entity)
		}
		b := bindings[stripe.Index(h.AnonID)]
		if _, dup := b[h.AnonID]; dup {
			return fmt.Errorf("history: duplicate anonymous ID %q in snapshot", h.AnonID)
		}
		b[h.AnonID] = h.Entity
		if len(h.Records) == 0 {
			swept[stripe.Index(h.AnonID)][h.AnonID] = struct{}{}
			continue
		}
		g := groups[stripe.Index(h.Entity)]
		g[h.Entity] = append(g[h.Entity], &EntityHistory{AnonID: h.AnonID, Entity: h.Entity, Records: h.Records})
	}
	byAnonID := func(a, b *EntityHistory) int { return strings.Compare(a.AnonID, b.AnonID) }
	for i := range ss.entities {
		byEntity := make(map[string]*VisitIndex, len(groups[i]))
		for key, g := range groups[i] {
			slices.SortFunc(g, byAnonID)
			byEntity[key] = IndexHistories(g)
		}
		es := &ss.entities[i]
		es.mu.Lock()
		es.byEntity = byEntity
		es.mu.Unlock()
	}
	for i := range ss.ids {
		ss.ids[i].mu.Lock()
		ss.ids[i].binding = bindings[i]
		ss.ids[i].swept = swept[i]
		ss.ids[i].mu.Unlock()
	}
	return nil
}

// Stats summarizes store contents.
type Stats struct {
	Histories int
	Records   int
	Entities  int
}

// Stats returns current totals.
func (ss *ServerStore) Stats() Stats {
	var s Stats
	for i := range ss.entities {
		es := &ss.entities[i]
		es.mu.RLock()
		s.Entities += len(es.byEntity)
		for _, v := range es.byEntity {
			s.Histories += len(v.Histories)
			for _, e := range v.Histories {
				s.Records += len(e.h.Records)
			}
		}
		es.mu.RUnlock()
	}
	return s
}
