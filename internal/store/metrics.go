package store

import (
	"strconv"

	"opinions/internal/obs"
)

// fsyncBuckets resolves the fsync latency range: tens of microseconds
// on a lying consumer SSD through tens of milliseconds on a spun-down
// disk or a saturated cloud volume.
var fsyncBuckets = []float64{
	0.00005, 0.0001, 0.00025, 0.0005, 0.001, 0.0025, 0.005,
	0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1,
}

// batchBuckets sizes group-commit batches: 1 is a lone committer
// paying a full fsync, the high end is a saturated stripe amortizing
// one fsync across hundreds of records.
var batchBuckets = []float64{1, 2, 4, 8, 16, 32, 64, 128, 256, 512}

// Per-stripe WAL families: every commit stripe owns a lane (sequence
// space, segment family, group-commit syncer), and each lane reports
// under its stripe label so a hot or slow stripe is visible on
// /metrics rather than averaged away.
var (
	metricWALAppends = obs.Default.CounterVec("wal_appends_total",
		"Records appended to the write-ahead log, by commit stripe.", "stripe")
	metricWALAppendBytes = obs.Default.CounterVec("wal_appended_bytes_total",
		"Bytes appended to the write-ahead log, frames included, by commit stripe.", "stripe")
	metricWALFsyncs = obs.Default.CounterVec("wal_fsyncs_total",
		"Group-commit fsync calls on active WAL segments, by commit stripe.", "stripe")
	metricWALFsyncSeconds = obs.Default.HistogramVec("wal_fsync_seconds",
		"Latency of WAL fsync calls, by commit stripe.", fsyncBuckets, "stripe")
	metricWALBatchSize = obs.Default.HistogramVec("wal_group_commit_batch_size",
		"Records released per group-commit flush cycle, by commit stripe.", batchBuckets, "stripe")
	metricWALSegmentBytes = obs.Default.GaugeVec("wal_active_segment_bytes",
		"Size of the active WAL segment, by commit stripe.", "stripe")
)

var (
	metricWALCompactions = obs.Default.Counter("wal_compactions_total",
		"Compactions folding the per-stripe WALs into a snapshot.")
	metricWALReplayed = obs.Default.Counter("wal_replayed_records_total",
		"WAL records replayed during recovery, all stripes.")
	metricWALTornTails = obs.Default.Counter("wal_torn_tails_total",
		"Torn or corrupt trailing records truncated during recovery.")
	metricStoreCommits = obs.Default.CounterVec("store_commits_total",
		"Mutations committed through the store, by record kind.", "kind")
	metricStoreUnavailable = obs.Default.Counter("store_unavailable_total",
		"Commits refused because the WAL previously failed.")
	metricStoreReplicated = obs.Default.Counter("store_replicated_commits_total",
		"Records applied through CommitReplicated (follower role).")
	metricFrameSubsLagged = obs.Default.Counter("store_frame_subs_lagged_total",
		"Frame subscriptions dropped for falling behind the commit stream.")
	metricStripeContention = obs.Default.Gauge("commit_stripe_contention",
		"Committers currently blocked waiting for a stripe another commit holds.")
)

// laneMetrics is the resolved per-stripe handle set: label lookups
// happen once at Open, never on the commit path.
type laneMetrics struct {
	appends      *obs.Counter
	appendBytes  *obs.Counter
	fsyncs       *obs.Counter
	fsyncSeconds *obs.Histogram
	batchSize    *obs.Histogram
	segmentBytes *obs.Gauge
}

func newLaneMetrics(stripe int) *laneMetrics {
	s := strconv.Itoa(stripe)
	return &laneMetrics{
		appends:      metricWALAppends.With(s),
		appendBytes:  metricWALAppendBytes.With(s),
		fsyncs:       metricWALFsyncs.With(s),
		fsyncSeconds: metricWALFsyncSeconds.With(s),
		batchSize:    metricWALBatchSize.With(s),
		segmentBytes: metricWALSegmentBytes.With(s),
	}
}
