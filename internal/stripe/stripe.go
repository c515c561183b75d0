// Package stripe is the shard-selection helper behind the N-way
// striped locks of the read state (reviews, inferred opinions,
// anonymous histories) and behind the sharded commit pipeline's
// per-stripe WAL lanes. Striping by entity key lets searches and
// review reads proceed on one shard while an upload mutates another,
// and lets commits to different entities fsync on different lanes,
// instead of every handler serializing behind a single store-wide
// lock.
//
// The hash is FNV-1a over the key; every consumer selects a shard
// through this package so read stores and the commit pipeline agree on
// one routing function. Both run NumShards wide, so a key's commit
// lane is its read stripe.
package stripe

// NumShards is the stripe width shared by all striped read stores and
// the commit pipeline's lanes. 64 is comfortably above the
// server's max-in-flight default (256 requests over 64 stripes keeps
// expected queue depth per stripe low) while keeping per-store fixed
// overhead at a few KB.
const NumShards = 64

// fnv1a constants (64-bit).
const (
	offset64 = 14695981039346656037
	prime64  = 1099511628211
)

// Hash is the raw 64-bit FNV-1a of key — the one hash every striped
// structure derives its shard index from.
func Hash(key string) uint64 {
	var h uint64 = offset64
	for i := 0; i < len(key); i++ {
		h ^= uint64(key[i])
		h *= prime64
	}
	return h
}

// Index maps a key to its shard in [0, NumShards).
func Index(key string) int {
	return int(Hash(key) & (NumShards - 1))
}

// IndexN maps a key to a shard in [0, n) for an arbitrary positive
// stripe count. Power-of-two counts use the same mask selection as
// Index (so IndexN(key, NumShards) == Index(key)); other counts fall
// back to a modulo of the full hash.
//
// Remap churn: IndexN is modulo placement, not a consistent hash.
// Changing the width from n to m keeps a key in place only when its
// hash agrees mod both, which happens for min(n,m)/lcm(n,m) of keys —
// doubling (64→128) moves half of them, and near-coprime widths
// (64→65 keeps 64/4160 ≈ 1.5%) move nearly everything. That is why
// the cluster ring treats its partition count as fixed at deployment:
// growing a cluster is a resharding event where almost every entity
// migrates, not an incremental rebalance. The striped read stores and
// commit lanes inside one node never see this — their widths are
// per-process constants and the structures rebuild from the log on
// restart. TestIndexNRemapFraction pins the measured churn to this
// model.
func IndexN(key string, n int) int {
	if n <= 1 {
		return 0
	}
	h := Hash(key)
	if n&(n-1) == 0 {
		return int(h & uint64(n-1))
	}
	return int(h % uint64(n))
}
