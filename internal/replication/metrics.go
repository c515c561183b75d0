package replication

import "opinions/internal/obs"

var (
	metricFrames = obs.Default.Counter("replication_frames_total",
		"WAL frames streamed to followers (catch-up and live).")
	metricBytes = obs.Default.Counter("replication_bytes_total",
		"Payload bytes streamed to followers, frames and snapshots.")
	metricSnapshots = obs.Default.Counter("replication_snapshots_total",
		"Snapshot seeds sent to followers too far behind for frames.")
	metricFollowerLag = obs.Default.Gauge("replication_follower_lag_records",
		"Leader commits not yet acknowledged by the most caught-up follower.")
	metricFollowersConnected = obs.Default.Gauge("replication_followers_connected",
		"Follower sessions currently attached to this leader.")
	metricBarrierTimeouts = obs.Default.Counter("replication_barrier_timeouts_total",
		"Semi-sync commits refused because no follower acked in time.")
	metricFollowersAhead = obs.Default.Counter("replication_follower_ahead_total",
		"Follower sessions refused because the follower held frames this leader does not.")
	metricDegradedCommits = obs.Default.Counter("replication_degraded_commits_total",
		"Semi-sync commits acknowledged with no follower attached.")
	metricApplied = obs.Default.Counter("replication_applied_total",
		"Frames applied by this node in the follower role.")
	metricSnapshotsLoaded = obs.Default.Counter("replication_snapshots_loaded_total",
		"Snapshot seeds applied by this node in the follower role.")
	metricApplyLag = obs.Default.Gauge("replication_apply_lag_records",
		"Leader commits this follower has not yet applied.")
	metricReconnects = obs.Default.Counter("replication_reconnects_total",
		"Follower sessions that ended in an error and were redialed.")
	metricPromotions = obs.Default.Counter("replication_promotions_total",
		"Followers promoted to leader, explicit and automatic.")
)
