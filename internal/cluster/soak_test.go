package cluster_test

// The cluster kill-one-leader soak: three partitions, one of them a
// replicated leader/follower pair, a cluster-aware Router delivering
// exactly-once uploads by entity key. Mid-soak the pair's leader dies
// in two phases — first it hangs (the wire-visible outage: gathered
// search/directory go partial for exactly that partition), then it is
// killed uncleanly (connections severed, replication stream cut, store
// abandoned) and the follower auto-promotes. The bar generalizes
// rspclient's pair soak to a ring: zero lost AND zero duplicated
// uploads summed across every partition's surviving store, with the
// scatter-gather read path answering throughout and the partial-results
// header observed during the outage.

import (
	"crypto/rand"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"net"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"

	"opinions/internal/blindsig"
	"opinions/internal/cluster"
	"opinions/internal/faultinject"
	"opinions/internal/replication"
	"opinions/internal/resilience"
	"opinions/internal/rspclient"
	"opinions/internal/rspserver"
	"opinions/internal/simclock"
	"opinions/internal/store"
	"opinions/internal/world"
)

func waitUntil(t *testing.T, d time.Duration, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(d)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

func TestClusterKillOneLeaderSoak(t *testing.T) {
	quiet := slog.New(slog.NewTextHandler(io.Discard, nil))
	clock := simclock.NewSim(simclock.Epoch)

	catalog := make([]*world.Entity, 0, 60)
	for i := 0; i < 60; i++ {
		catalog = append(catalog, &world.Entity{
			ID: world.EntityID(fmt.Sprintf("s%02d", i)), Service: world.Yelp,
			Zip: "48104", Category: "chinese", Name: fmt.Sprintf("Soak %02d", i),
			Quality: 1 + float64(i%5),
		})
	}

	// One issuer for the whole ring: a token signed anywhere is
	// redeemable anywhere, including on a freshly promoted follower.
	issuer, err := blindsig.NewIssuer(1024, 1<<20, 24*time.Hour, clock)
	if err != nil {
		t.Fatal(err)
	}

	// Partition 1 is the replicated pair that loses its leader. Its two
	// nodes share state through semi-sync replication over real stores;
	// partitions 0 and 2 are plain single-node members.
	const victim = 1
	leaderSt, err := store.Open(store.Options{Dir: t.TempDir(), CompactEvery: -1, NoSync: true, Logger: quiet})
	if err != nil {
		t.Fatal(err)
	}
	followerSt, err := store.Open(store.Options{Dir: t.TempDir(), CompactEvery: -1, NoSync: true, Logger: quiet})
	if err != nil {
		t.Fatal(err)
	}
	defer followerSt.Close()

	leader := replication.NewLeader(leaderSt, replication.LeaderOptions{
		AckTimeout: 2 * time.Second, HeartbeatEvery: 20 * time.Millisecond, Logger: quiet,
	})
	repLn, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go leader.Serve(repLn)

	// Listeners before handlers: the ring needs every node's URL first,
	// so each test server delegates through a late-bound slot. Slots:
	// 0 = partition 0, 1 = leader, 2 = follower, 3 = partition 2.
	handlers := make([]atomic.Pointer[http.Handler], 4)
	ts := make([]*httptest.Server, 4)
	for i := range ts {
		i := i
		ts[i] = httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			(*handlers[i].Load()).ServeHTTP(w, r)
		}))
	}
	defer func() {
		for _, s := range ts {
			s.Close()
		}
	}()
	ring, err := cluster.New(cluster.Config{Partitions: []cluster.Partition{
		{Nodes: []string{ts[0].URL}},
		{Nodes: []string{ts[1].URL, ts[2].URL}},
		{Nodes: []string{ts[3].URL}},
	}})
	if err != nil {
		t.Fatal(err)
	}
	for p := 0; p < ring.NumPartitions(); p++ {
		if len(rspserver.FilterCatalog(ring, p, catalog)) == 0 {
			t.Fatalf("partition %d owns no catalog entities; soak proves nothing", p)
		}
	}

	promoted := make(chan string, 1)
	fol := replication.StartFollower(followerSt, repLn.Addr().String(), replication.FollowerOptions{
		Retry:         resilience.Policy{BaseDelay: 5 * time.Millisecond, MaxDelay: 50 * time.Millisecond},
		Breaker:       &resilience.Breaker{FailureThreshold: 1000, Cooldown: 10 * time.Millisecond},
		FailoverAfter: 400 * time.Millisecond,
		ReadTimeout:   100 * time.Millisecond,
		OnPromote:     func(reason string) { promoted <- reason },
		Logger:        quiet,
	})
	defer fol.Close()

	gatherOpts := rspserver.GatherOptions{Timeout: 250 * time.Millisecond}
	newNode := func(p int, st *store.Store) *rspserver.Server {
		cfg := rspserver.Config{
			Catalog: rspserver.FilterCatalog(ring, p, catalog),
			Clock:   clock, Issuer: issuer, Store: st,
		}
		srv, err := rspserver.New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		return srv
	}
	srv0 := newNode(0, nil)
	srvL := newNode(victim, leaderSt)
	srvF := newNode(victim, followerSt)
	srv2 := newNode(2, nil)

	install := func(slot, p int, srv *rspserver.Server, mws ...rspserver.Middleware) {
		chain := append([]rspserver.Middleware{rspserver.WithRecovery(quiet)}, mws...)
		chain = append(chain,
			rspserver.WithScatterGather(ring, p, gatherOpts),
			rspserver.WithOwnershipGate(ring, p),
		)
		h := rspserver.Chain(srv.Handler(), chain...)
		handlers[slot].Store(&h)
	}
	// The leader runs the applied-then-truncated injector: some uploads
	// commit but the 2xx never reaches the client, so the retries (fresh
	// token, same idempotency key) are exactly the duplicates the
	// cluster-wide ledger must absorb.
	inj := faultinject.New(faultinject.Config{Seed: 5, TruncateAppliedRate: 0.15})
	install(0, 0, srv0)
	install(1, victim, srvL, inj.Middleware)
	install(2, victim, srvF,
		rspserver.WithFollowerGate(func() bool { return !fol.Promoted() }, ts[1].URL))
	install(3, 2, srv2)

	retry := &resilience.Policy{MaxAttempts: 4, BaseDelay: 5 * time.Millisecond, MaxDelay: 50 * time.Millisecond}
	router := rspclient.NewRouter(ring, rspclient.RouterOptions{Retry: retry, ReprobeAfter: -1})

	// One upload, exactly once: a fresh one-time token per attempt but a
	// stable idempotency key, so redelivery after a truncated ack or a
	// failover is absorbed by the ledger instead of applying twice.
	uploadOnce := func(i int) error {
		key := catalog[i%len(catalog)].Key()
		serial := make([]byte, 32)
		if _, err := rand.Read(serial); err != nil {
			return err
		}
		pub, err := router.FetchTokenKey()
		if err != nil {
			return err
		}
		blinded, unblind, err := blindsig.Blind(pub, serial, rand.Reader)
		if err != nil {
			return err
		}
		sig, err := router.SignToken(fmt.Sprintf("soak-dev-%d", i), blinded)
		if err != nil {
			return err
		}
		rec := rspserver.WireRecord{Kind: "visit", Start: clock.Now(), DurationS: 120}
		return router.Upload(rspserver.UploadRequest{
			AnonID: fmt.Sprintf("anon-%d", i),
			Entity: key,
			Record: &rec,
			Token:  rspserver.FromToken(blindsig.Token{Msg: serial, Sig: unblind(sig)}),
			Key:    fmt.Sprintf("soak-%d", i),
		})
	}
	deliver := func(i int) {
		t.Helper()
		deadline := time.Now().Add(20 * time.Second)
		for {
			err := uploadOnce(i)
			if err == nil {
				return
			}
			if time.Now().After(deadline) {
				t.Fatalf("upload %d never delivered: %v", i, err)
			}
			time.Sleep(10 * time.Millisecond)
		}
	}

	const total = 120
	for i := 0; i < total/2; i++ {
		deliver(i)
	}

	// Quiesce: everything the leader acknowledged must be on the
	// follower before the kill, or the loss would be replication's
	// fault, not the cluster layer's.
	waitUntil(t, 10*time.Second, "follower catch-up", func() bool {
		return leader.Attached() > 0 && fol.Connected() && leader.FollowerAck() >= leaderSt.Seq()
	})
	preKillSeq := leaderSt.Seq()
	if preKillSeq == 0 {
		t.Fatal("no uploads reached the victim partition before the kill")
	}

	// Phase 1 — the leader hangs: requests park until their context
	// dies. A hung preferred node burns its partition's whole gather
	// budget, so every gathered read answers partial for exactly the
	// victim partition while the rest of the ring keeps serving.
	hang := http.Handler(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		<-r.Context().Done()
	}))
	handlers[1].Store(&hang)

	checkPartial := func(uri string) {
		t.Helper()
		resp, err := http.Get(ts[0].URL + uri)
		if err != nil {
			t.Fatalf("%s during outage: %v", uri, err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s during outage = %d, want 200", uri, resp.StatusCode)
		}
		if got := resp.Header.Get(rspserver.PartialHeader); got != "1" {
			t.Fatalf("%s during outage: %s = %q, want %q", uri, rspserver.PartialHeader, got, "1")
		}
	}
	checkPartial("/api/directory")
	checkPartial("/api/search?service=yelp&zip=48104&category=chinese&limit=5")

	// Phase 2 — the unclean kill: sever every client connection
	// (including the parked ones), stop the listener, cut the
	// replication stream. The store is abandoned mid-flight.
	ts[1].CloseClientConnections()
	ts[1].Close()
	leader.Close()
	repLn.Close()

	select {
	case reason := <-promoted:
		t.Logf("follower promoted (%s) at leader seq %d", reason, preKillSeq)
	case <-time.After(10 * time.Second):
		t.Fatal("follower never auto-promoted after leader loss")
	}
	t.Logf("leader chaos before the kill: %+v", inj.Stats())
	if followerSt.Seq() < preKillSeq {
		t.Fatalf("follower promoted at seq %d, behind the leader's acknowledged %d", followerSt.Seq(), preKillSeq)
	}

	// With the follower promoted the ring is whole again: gathered reads
	// return every partition's slice, no partial header.
	resp, err := http.Get(ts[0].URL + "/api/directory")
	if err != nil {
		t.Fatal(err)
	}
	var dir []rspserver.WireEntity
	if err := json.NewDecoder(resp.Body).Decode(&dir); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if got := resp.Header.Get(rspserver.PartialHeader); got != "" {
		t.Fatalf("post-promotion directory still partial: %q", got)
	}
	if len(dir) != len(catalog) {
		t.Fatalf("post-promotion directory has %d entities, want %d", len(dir), len(catalog))
	}

	// Life goes on: the Router's victim-partition transport fails over
	// to the promoted follower and the second half delivers.
	for i := total / 2; i < total; i++ {
		deliver(i)
	}

	// Zero lost, zero duplicated — summed across every partition's
	// surviving store. Each upload carries exactly one visit record, so
	// the cluster-wide record count IS the delivery count.
	count := func(srv *rspserver.Server) int {
		_, _, hist := srv.Stores()
		return hist.Stats().Records
	}
	got := count(srv0) + count(srv2) + followerSt.Histories().Stats().Records
	if got != total {
		verb, n := "lost", total-got
		if got > total {
			verb, n = "duplicated", got-total
		}
		t.Fatalf("cluster holds %d records, %d uploads sent — %d %s across the failover", got, total, n, verb)
	}

	// Cross-partition fan-out still barriers on every partition, the
	// dead leader's seat now filled by its follower.
	if scanned, _, err := router.FraudSweep(); err != nil {
		t.Fatalf("post-failover fraud sweep: %v", err)
	} else if scanned == 0 {
		t.Fatal("post-failover fraud sweep scanned nothing")
	}
}
