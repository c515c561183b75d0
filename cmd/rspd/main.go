// Command rspd runs the Recommendation Sharing Provider service over
// HTTP.
//
// Two synthetic universes are available:
//
//	rspd -world city                 # behavioural city (device agents connect)
//	rspd -world directory -scale 0.1 # the five measured services (crawler connects)
//
// Endpoints are documented in internal/rspserver. Observability rides
// the public listener at /metrics (Prometheus text format) and
// /debug/requests (recent traced spans); profiling via net/http/pprof
// is opt-in behind -debug-addr so it never shares the public listener.
//
// Each request runs under a fixed middleware chain: a 30 s handler
// deadline (a handler that has written nothing by then answers 503),
// shedding beyond 256 concurrent requests with a 1 s Retry-After, and
// the last 256 traced spans kept for /debug/requests.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"log/slog"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"sync"
	"syscall"
	"time"

	"opinions/internal/cluster"
	"opinions/internal/obs"
	"opinions/internal/replication"
	"opinions/internal/rspserver"
	"opinions/internal/store"
	"opinions/internal/world"
)

// The serving chain's fixed bounds.
const (
	requestTimeout = 30 * time.Second
	maxInFlight    = 256
	shedRetryAfter = time.Second
	traceSpans     = 256
)

func main() {
	var (
		addr       = flag.String("addr", ":8080", "listen address")
		debugAddr  = flag.String("debug-addr", "", "optional private listener for pprof profiling (plus metrics and requests); empty disables")
		universe   = flag.String("world", "city", "universe to serve: city | directory")
		scale      = flag.Float64("scale", 0.2, "directory scale (1.0 = paper scale, ~75k entities)")
		seed       = flag.Int64("seed", 1, "world seed")
		users      = flag.Int("users", 400, "city users (city world only)")
		keyBits    = flag.Int("keybits", 2048, "blind-signature RSA key size")
		walDir     = flag.String("wal-dir", "", "durability directory: write-ahead log + snapshot; every mutation is fsynced before it is acknowledged, and recovery on boot replays the log tail")
		compactEvr = flag.Int("compact-every", 0, "fold the WAL into a snapshot every N records (with -wal-dir; 0 = default 4096, negative disables auto-compaction)")
		epsilon    = flag.Float64("privacy-epsilon", 0, "when >0, release inference aggregates with ε-differential privacy")
		rateLim    = flag.Int("rate-limit", 600, "per-host HTTP requests per minute (0 disables)")
		quiet      = flag.Bool("quiet", false, "disable per-request logging")
		replAddr   = flag.String("replication-addr", "", "listen address for the WAL replication stream (leader mode, with -wal-dir; commits are acknowledged only after an attached follower has them; a follower with this set starts leading on promotion)")
		replFrom   = flag.String("replicate-from", "", "leader replication address to follow (follower mode, with -wal-dir: mutating routes answer 503 until promotion)")
		failAfter  = flag.Duration("failover-after", 10*time.Second, "follower auto-promotes after this long without leader contact (with -replicate-from; 0 = explicit /promote only)")
		leaderURL  = flag.String("leader-url", "", "leader's public HTTP URL, returned as X-Leader on follower-gate 503s")
		clusterCfg = flag.String("cluster-config", "", "cluster ring descriptor (JSON); the node serves one partition of a multi-node deployment")
		partition  = flag.Int("partition", -1, "this node's partition id in the -cluster-config ring")
	)
	flag.Parse()

	// Replication ships WAL frames and acks what the follower has
	// fsynced, so both ends need a log.
	if (*replAddr != "" || *replFrom != "") && *walDir == "" {
		fmt.Fprintln(os.Stderr, "-replication-addr and -replicate-from require -wal-dir")
		os.Exit(2)
	}

	logger := obs.NewLogger(os.Stderr, slog.LevelInfo)
	slog.SetDefault(logger)
	fatal := func(msg string, args ...any) {
		logger.Error(msg, args...)
		os.Exit(1)
	}

	var catalog []*world.Entity
	var zips []string
	switch *universe {
	case "city":
		// The server only serves the entity catalog; opening the city
		// streaming means -users 1000000 costs the same memory as 400.
		city := world.OpenCity(world.CityConfig{Seed: *seed, NumUsers: *users})
		catalog = city.Entities
	case "directory":
		dir := world.BuildDirectory(world.DirectoryConfig{Seed: *seed, NumZips: 50, Scale: *scale, InteractionEntities: 1000})
		for _, kind := range world.ReviewServices {
			catalog = append(catalog, dir.Entities[kind]...)
		}
		for _, kind := range world.InteractionServices {
			catalog = append(catalog, dir.Entities[kind]...)
		}
		for _, z := range dir.Zips {
			zips = append(zips, z.Code)
		}
	default:
		fmt.Fprintf(os.Stderr, "unknown -world %q (want city or directory)\n", *universe)
		os.Exit(2)
	}

	// Cluster mode: load the ring, keep only this partition's slice of
	// the (deterministically shared) catalog. Every node builds the same
	// full catalog from the same seed, so the partitions' slices union
	// to exactly the whole directory with no coordination.
	var ringCfg *cluster.Ring
	if *clusterCfg != "" {
		var err error
		ringCfg, err = cluster.Load(*clusterCfg)
		if err != nil {
			fatal("loading cluster config", "path", *clusterCfg, "err", err)
		}
		if *partition < 0 || *partition >= ringCfg.NumPartitions() {
			fmt.Fprintf(os.Stderr, "-partition %d outside ring of %d partitions (need -partition with -cluster-config)\n",
				*partition, ringCfg.NumPartitions())
			os.Exit(2)
		}
		full := len(catalog)
		catalog = rspserver.FilterCatalog(ringCfg, *partition, catalog)
		logger.Info("cluster partition", "partition", *partition, "of", ringCfg.NumPartitions(),
			"entities", len(catalog), "full_catalog", full)
	} else if *partition >= 0 {
		fmt.Fprintln(os.Stderr, "-partition requires -cluster-config")
		os.Exit(2)
	}

	// With -wal-dir, opening the store IS recovery: load the snapshot,
	// replay the log tail past it, repair a torn final record. Every
	// subsequent mutation is applied, logged, and fsynced before its
	// HTTP response goes out.
	var st *store.Store
	if *walDir != "" {
		var err error
		st, err = store.Open(store.Options{Dir: *walDir, CompactEvery: *compactEvr, Logger: logger})
		if err != nil {
			fatal("opening durable store", "dir", *walDir, "err", err)
		}
		logger.Info("durable store open", "dir", *walDir, "seq", st.Seq(), "commit_stripes", st.NumStripes())
	}

	rsp, err := rspserver.New(rspserver.Config{Catalog: catalog, KeyBits: *keyBits, Zips: zips, PrivacyEpsilon: *epsilon, Store: st})
	if err != nil {
		fatal("building server", "err", err)
	}

	// Replication. The leader streams every WAL commit to followers over
	// -replication-addr; a follower tails -replicate-from, applies the
	// stream through its own store, and refuses local mutations until it
	// is promoted — explicitly via POST /promote, or automatically after
	// -failover-after without leader contact. A follower that also has
	// -replication-addr set starts serving the stream itself the moment
	// it is promoted, so the survivor of a failover can take followers
	// of its own.
	stateStore := rsp.Store()
	var (
		repMu     sync.Mutex
		repLeader *replication.Leader
	)
	startLeading := func() {
		repMu.Lock()
		defer repMu.Unlock()
		if repLeader != nil {
			return
		}
		ln, err := net.Listen("tcp", *replAddr)
		if err != nil {
			logger.Error("replication listener failed", "addr", *replAddr, "err", err)
			return
		}
		l := replication.NewLeader(stateStore, replication.LeaderOptions{Logger: logger})
		repLeader = l
		go func() {
			if err := l.Serve(ln); err != nil {
				logger.Error("replication serve failed", "err", err)
			}
		}()
		logger.Info("replication leader serving", "addr", *replAddr)
	}
	var follower *replication.Follower
	switch {
	case *replFrom != "":
		follower = replication.StartFollower(stateStore, *replFrom, replication.FollowerOptions{
			FailoverAfter: *failAfter,
			OnPromote: func(reason string) {
				logger.Warn("promoted to leader", "reason", reason)
				if *replAddr != "" {
					startLeading()
				}
			},
			Logger: logger,
		})
		logger.Info("following leader", "addr", *replFrom, "failover_after", *failAfter)
	case *replAddr != "":
		startLeading()
	}

	// Recovery is outermost so a panic anywhere below it — including an
	// injected connection reset — becomes a logged 500, not a dead
	// process. Tracing sits directly inside recovery so every log line
	// and metric below runs in trace context; metrics wrap the shedding
	// middlewares so shed 503s and rate-limit 429s are counted as such.
	ring := obs.NewSpanRing(traceSpans)
	handler := rsp.Handler()
	mws := []rspserver.Middleware{
		rspserver.WithRecovery(logger),
		rspserver.WithTracing(ring),
	}
	if !*quiet {
		mws = append(mws, rspserver.WithLogging(logger))
	}
	mws = append(mws, rspserver.WithMetrics())
	if *rateLim > 0 {
		mws = append(mws, rspserver.WithRateLimit(*rateLim, time.Minute, nil))
	}
	mws = append(mws, rspserver.WithTimeout(requestTimeout))
	mws = append(mws, rspserver.WithMaxInFlight(maxInFlight, shedRetryAfter))
	if follower != nil {
		fol := follower
		mws = append(mws, rspserver.WithFollowerGate(func() bool { return !fol.Promoted() }, *leaderURL))
	}
	if ringCfg != nil {
		// Innermost: the gather's local leg re-enters below the shedding
		// layers (one client request stays one in-flight slot),
		// and the ownership gate refuses foreign keys only after the
		// request has paid the same tolls as an owned one.
		mws = append(mws,
			rspserver.WithScatterGather(ringCfg, *partition, rspserver.GatherOptions{}),
			rspserver.WithOwnershipGate(ringCfg, *partition),
		)
	}
	handler = rspserver.Chain(handler, mws...)

	// Observability endpoints share the public listener but sit outside
	// the middleware chain: a scrape must not burn the rate limit or be
	// shed.
	obs.RegisterProcessMetrics(obs.Default)
	mux := http.NewServeMux()
	mux.Handle("/", handler)
	mux.Handle("/metrics", obs.Default.Handler())
	mux.Handle("/debug/requests", ring.Handler())

	// Liveness, readiness, and the operator promotion lever share the
	// public listener but bypass the middleware chain: a probe must not
	// burn the rate limit or be shed, and /promote must work while the
	// follower gate is refusing everything else.
	health := &rspserver.Health{Store: stateStore}
	if ringCfg != nil {
		health.Partition = *partition
		health.Partitions = ringCfg.NumPartitions()
	}
	switch {
	case follower != nil:
		fol := follower
		health.Role = func() string {
			if fol.Promoted() {
				return "promoted"
			}
			return "follower"
		}
		health.CaughtUp = fol.CaughtUp
	case *replAddr != "":
		health.Role = func() string { return "leader" }
	}
	if follower != nil {
		fol := follower
		health.AddReadyCheck("replication", func() (bool, string) {
			if fol.CaughtUp() {
				return true, ""
			}
			return false, fmt.Sprintf("follower %d records behind leader", fol.Lag())
		})
	}
	mux.HandleFunc("/healthz", health.Healthz())
	mux.HandleFunc("/readyz", health.Readyz())
	mux.HandleFunc("/promote", func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodPost {
			http.Error(w, "POST only", http.StatusMethodNotAllowed)
			return
		}
		if follower == nil {
			http.Error(w, "not a replication follower", http.StatusConflict)
			return
		}
		did := follower.Promote("operator request")
		w.Header().Set("Content-Type", "application/json")
		json.NewEncoder(w).Encode(map[string]bool{"promoted": did})
	})

	srv := &http.Server{
		Addr:              *addr,
		Handler:           mux,
		ReadHeaderTimeout: 10 * time.Second,
	}

	if *debugAddr != "" {
		dbg := http.NewServeMux()
		dbg.HandleFunc("/debug/pprof/", pprof.Index)
		dbg.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		dbg.HandleFunc("/debug/pprof/profile", pprof.Profile)
		dbg.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		dbg.HandleFunc("/debug/pprof/trace", pprof.Trace)
		dbg.Handle("/metrics", obs.Default.Handler())
		dbg.Handle("/debug/requests", ring.Handler())
		go func() {
			logger.Info("debug listener up (pprof enabled)", "addr", *debugAddr)
			dsrv := &http.Server{Addr: *debugAddr, Handler: dbg, ReadHeaderTimeout: 10 * time.Second}
			if err := dsrv.ListenAndServe(); err != nil && !errors.Is(err, http.ErrServerClosed) {
				logger.Error("debug listener failed", "err", err)
			}
		}()
	}

	stop := make(chan os.Signal, 1)
	signal.Notify(stop, os.Interrupt, syscall.SIGTERM)
	done := make(chan struct{})
	go func() {
		defer close(done)
		<-stop
		// Drain in-flight requests BEFORE the final compaction, so the
		// snapshot it writes covers every acknowledged mutation and the
		// next boot replays no log tail.
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if err := srv.Shutdown(ctx); err != nil {
			logger.Error("shutdown", "err", err)
		}
		// Stop replication before the final compaction: the follower's
		// tail loop and the leader's sessions must not race the
		// compaction or the store close.
		if follower != nil {
			follower.Close()
		}
		repMu.Lock()
		if repLeader != nil {
			repLeader.Close()
		}
		repMu.Unlock()
		if st == nil {
			return
		}
		if err := st.Compact(); err != nil {
			logger.Error("compaction failed", "reason", "shutdown", "err", err)
		} else {
			logger.Info("wal compacted", "dir", *walDir, "reason", "shutdown")
		}
		if err := st.Close(); err != nil {
			logger.Error("closing durable store", "err", err)
		}
	}()

	logger.Info("serving", "entities", len(catalog), "world", *universe, "addr", *addr)
	if err := srv.ListenAndServe(); err != nil && !errors.Is(err, http.ErrServerClosed) {
		fatal("serve failed", "err", err)
	}
	<-done
}
