package replication

import (
	"fmt"
	"net"
	"testing"
	"time"

	"opinions/internal/interaction"
	"opinions/internal/resilience"
	"opinions/internal/simclock"
	"opinions/internal/store"
)

func benchStore(b *testing.B) *store.Store {
	b.Helper()
	s, err := store.Open(store.Options{
		Dir: b.TempDir(), NoSync: true, CompactEvery: -1,
		Clock: simclock.NewSim(simclock.Epoch), Logger: quietLogger(),
	})
	if err != nil {
		b.Fatalf("Open: %v", err)
	}
	b.Cleanup(func() { s.Close() })
	return s
}

func benchPair(b *testing.B) (*store.Store, *Leader) {
	b.Helper()
	leaderStore, followerStore := benchStore(b), benchStore(b)
	l := NewLeader(leaderStore, LeaderOptions{
		AckTimeout:     10 * time.Second,
		HeartbeatEvery: 20 * time.Millisecond, Logger: quietLogger(),
	})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		b.Fatalf("listen: %v", err)
	}
	go l.Serve(ln)
	b.Cleanup(func() { l.Close() })
	f := StartFollower(followerStore, ln.Addr().String(), FollowerOptions{
		Retry:       resilience.Policy{BaseDelay: 5 * time.Millisecond, MaxDelay: 50 * time.Millisecond},
		Breaker:     &resilience.Breaker{FailureThreshold: 1000, Cooldown: 10 * time.Millisecond},
		ReadTimeout: 5 * time.Second,
		Logger:      quietLogger(),
	})
	b.Cleanup(func() { f.Close() })
	deadline := time.Now().Add(5 * time.Second)
	for !f.Connected() && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if !f.Connected() {
		b.Fatal("follower never connected")
	}
	return leaderStore, l
}

func benchRec(i int) *store.Record {
	rating := 4.0
	return &store.Record{
		Kind:   store.KindUpload,
		AnonID: fmt.Sprintf("anon-%d", i),
		Entity: fmt.Sprintf("ent/%d", i%16),
		Visit: &interaction.Record{
			Entity: fmt.Sprintf("ent/%d", i%16), Kind: interaction.VisitKind,
			Start: simclock.Epoch, Duration: 30 * time.Minute,
		},
		Rating: &rating,
		Key:    fmt.Sprintf("bench-key-%d", i),
	}
}

// BenchmarkReplicatedCommitSync measures commit throughput through the
// semi-synchronous barrier: each op is apply + local WAL append + ship
// + follower apply/fsync + ack. The reported lag-records is the
// steady-state follower lag when the run ends (0 is the semi-sync
// promise).
func BenchmarkReplicatedCommitSync(b *testing.B) {
	leaderStore, l := benchPair(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := leaderStore.Commit(benchRec(i)); err != nil {
			b.Fatalf("commit: %v", err)
		}
	}
	b.StopTimer()
	b.ReportMetric(float64(leaderStore.Seq()-l.FollowerAck()), "lag-records")
}
