package main

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"strconv"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"opinions/internal/cluster"
	"opinions/internal/rspserver"
)

// Harness holds what every run of one process shares.
type Harness struct {
	Root string // repository root
	Out  string // scratch: binaries, durability directories, traces, results
	Bin  string // the built cmd/rspd
	P    Params
	W    *World
	Log  io.Writer

	WorldDur time.Duration
}

// NewHarness builds rspd and the world once.
func NewHarness(p Params, log io.Writer) (*Harness, error) {
	root, err := repoRoot()
	if err != nil {
		return nil, err
	}
	h := &Harness{Root: root, Out: filepath.Join(root, "bench", "out"), P: p, Log: log}
	if err := os.MkdirAll(h.Out, 0o755); err != nil {
		return nil, err
	}
	t0 := time.Now()
	if h.Bin, err = buildRSPD(root, h.Out); err != nil {
		return nil, err
	}
	h.logf("built cmd/rspd in %.1f s", time.Since(t0).Seconds())
	t0 = time.Now()
	h.W = BuildWorld(p)
	h.WorldDur = time.Since(t0)
	return h, nil
}

func (h *Harness) logf(format string, args ...any) {
	fmt.Fprintf(h.Log, "bench: "+format+"\n", args...)
}

// Result is one workload run. EndToEnd holds every metric of
// endToEndDefs, nil where the workload has no such op; the driver's
// JSON line carries the subset BENCHMARK.json bounds.
type Result struct {
	Workload  string              `json:"workload"`
	Seed      int64               `json:"seed"`
	WindowS   float64             `json:"window_s"`
	Attempted int                 `json:"attempted"`
	Failed    int                 `json:"failed"`
	EndToEnd  map[string]*float64 `json:"end_to_end"`
	Samples   map[string]int      `json:"samples"`
	PerLayer  map[string]float64  `json:"per_layer,omitempty"`
	Checks    []string            `json:"check_failures,omitempty"`
	CheckFail int                 `json:"checks_failed"`
}

// recorder accumulates one goroutine's outcomes; recorders are merged
// after the window, so the hot path takes no lock.
type recorder struct {
	lat       map[OpKind]*samples // successful ops only
	late      samples             // open loop: actual − intended send
	attempted int
	failed    int
	sloMiss   int
	okOps     int // successful non-operator ops
	worst     time.Duration
	user      []userSample // every successful non-operator op
}

// userSample is one successful user op: when it completed, counted
// from the window start, and how long its user waited.
type userSample struct {
	end, lat time.Duration
}

func newRecorder() *recorder { return &recorder{lat: make(map[OpKind]*samples)} }

func (r *recorder) record(out outcome, lat, end time.Duration, p Params) {
	if out.skipped {
		return
	}
	r.attempted++
	if lat > r.worst {
		r.worst = lat
	}
	limit := p.ContributeLimit
	if out.kind.isRead() {
		limit = p.ReadLimit
	}
	if !out.ok {
		r.failed++
		if !out.kind.isOperator() {
			r.sloMiss++
		}
		return
	}
	setOf(r.lat, out.kind).add(lat)
	if !out.kind.isOperator() {
		r.okOps++
		r.user = append(r.user, userSample{end, lat})
		if lat > limit {
			r.sloMiss++
		}
	}
}

func (r *recorder) merge(o *recorder) {
	for k, s := range o.lat {
		setOf(r.lat, k).extend(s)
	}
	r.late.extend(&o.late)
	r.attempted += o.attempted
	r.failed += o.failed
	r.sloMiss += o.sloMiss
	r.okOps += o.okOps
	r.user = append(r.user, o.user...)
	r.worst = max(r.worst, o.worst)
}

// pooled returns the latencies of several kinds as one sample set.
func (r *recorder) pooled(kinds ...OpKind) *samples {
	out := &samples{}
	for _, k := range kinds {
		if s := r.lat[k]; s != nil {
			out.extend(s)
		}
	}
	return out
}

var (
	readKinds = []OpKind{OpEntity, OpSearch, OpReviews, OpDirectory}
	userKinds = []OpKind{OpEntity, OpSearch, OpReviews, OpDirectory, OpContribute, OpReviewPost, OpRedeliver}
)

// deployment is one set-up: live nodes on fresh copies of the preload.
type deployment struct {
	sys     *System
	dirs    []string
	recover time.Duration // spawn → /readyz 200, slowest node
	extra   []string      // per-node extra flags, kept for the restart after kill −9
}

func (d *deployment) teardown() {
	for _, n := range d.sys.Nodes {
		n.Kill()
	}
	for _, dir := range d.dirs {
		os.RemoveAll(dir)
	}
}

// control is the harness's own client for scrapes and probes, apart
// from the load's connections.
var control = &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 2}, Timeout: 60 * time.Second}

// deploy copies the preload, starts the workload's nodes and waits for
// readiness. A node that loses the race for its port fails the start;
// the whole deployment is then retried on fresh ports.
func (h *Harness) deploy(workload string, preloadDirs []string, runDir string, p Params) (*deployment, error) {
	var lastErr error
	for attempt := 0; attempt < 3; attempt++ {
		d, err := h.deployOnce(workload, preloadDirs, runDir, p)
		if err == nil {
			return d, nil
		}
		lastErr = err
	}
	return nil, lastErr
}

func (h *Harness) deployOnce(workload string, preloadDirs []string, runDir string, p Params) (d *deployment, err error) {
	n := len(preloadDirs)
	ports := make([]int, n)
	for i := range ports {
		if ports[i], err = freePort(); err != nil {
			return nil, err
		}
	}
	d = &deployment{sys: &System{}}
	defer func() {
		if err != nil {
			d.teardown()
		}
	}()

	d.extra = []string{"-compact-every", strconv.Itoa(p.CompactEvery[workload])}
	if n > 1 {
		cfg := cluster.Config{}
		for _, port := range ports {
			cfg.Partitions = append(cfg.Partitions, cluster.Partition{Nodes: []string{fmt.Sprintf("http://127.0.0.1:%d", port)}})
		}
		if d.sys.Ring, err = cluster.New(cfg); err != nil {
			return d, err
		}
		data, _ := json.Marshal(cfg) // plain strings cannot fail to encode
		ringPath := filepath.Join(runDir, "ring.json")
		if err = os.MkdirAll(runDir, 0o755); err != nil {
			return d, err
		}
		if err = os.WriteFile(ringPath, data, 0o644); err != nil {
			return d, err
		}
		d.extra = append(d.extra, "-cluster-config", ringPath)
	}
	for i, src := range preloadDirs {
		dir := filepath.Join(runDir, fmt.Sprintf("node%d", i))
		os.RemoveAll(dir)
		if err = copyDir(src, dir); err != nil {
			return d, err
		}
		d.dirs = append(d.dirs, dir)
		extra := d.extra
		if n > 1 {
			extra = append(append([]string(nil), extra...), "-partition", strconv.Itoa(i))
		}
		node, err := spawn(h.Bin, dir, ports[i], p, extra...)
		if err != nil {
			return d, err
		}
		d.sys.Nodes = append(d.sys.Nodes, node)
	}
	for _, node := range d.sys.Nodes {
		took, err := node.WaitReady(control, 60*time.Second)
		if err != nil {
			return d, err
		}
		d.recover = max(d.recover, took)
	}
	return d, nil
}

// writePreload generates the workload's preload and writes one
// durability directory per node.
func (h *Harness) writePreload(workload string, seed int64, base string) (*Preload, []string, error) {
	pl := GeneratePreload(h.P, h.W, seed)
	os.RemoveAll(base)
	if workload != Ring3 {
		dir := filepath.Join(base, "node0")
		return pl, []string{dir}, WritePreload(dir, pl)
	}
	ring, err := ringOfWidth(ringWidth)
	if err != nil {
		return nil, nil, err
	}
	var dirs []string
	for i := 0; i < ringWidth; i++ {
		dir := filepath.Join(base, fmt.Sprintf("node%d", i))
		if err := WritePreload(dir, pl.Slice(ring, i)); err != nil {
			return nil, nil, err
		}
		dirs = append(dirs, dir)
	}
	return pl, dirs, nil
}

// ringWidth is ring3's partition count.
const ringWidth = 3

// ringOfWidth builds a ring of n single-node partitions at placeholder
// addresses. Ownership depends only on the width, so such a ring slices
// the preload before any port is chosen.
func ringOfWidth(n int) (*cluster.Ring, error) {
	cfg := cluster.Config{}
	for i := 0; i < n; i++ {
		cfg.Partitions = append(cfg.Partitions, cluster.Partition{Nodes: []string{fmt.Sprintf("http://placeholder-%d", i)}})
	}
	return cluster.New(cfg)
}

// window is one measured interval and everything sampled around it.
type window struct {
	rec      *recorder
	elapsed  time.Duration
	metrics  scrape // /metrics delta over the window
	server   procSample
	cpuTicks []time.Duration // server CPU consumed by the end of each whole second of the window
	loadgen  time.Duration   // harness CPU
	floor    samples         // GET /healthz round trips taken just before the window
	tracer   *Tracer
	sentOps  map[OpKind][]Op // the first requests of each kind, for the ladder
}

// session is the load side of one deployment: clients whose streams
// continue across warm-up and windows.
type session struct {
	h        *Harness
	workload string
	dep      *deployment
	checks   *Checks
	clients  []*Client
	streams  []*Stream
	operator *Client
	opSeq    atomic.Int64
}

func (h *Harness) newSession(workload string, seed int64, episode int, dep *deployment, checks *Checks, pl *Preload) *session {
	s := &session{h: h, workload: workload, dep: dep, checks: checks}
	load := &http.Client{Transport: newTransport(h.P.Clients), Timeout: 60 * time.Second}
	for c := 0; c < h.P.Clients; c++ {
		cl := newClient(load, dep.sys, h.P, h.W, checks)
		if workload == Browse { // nothing writes: every entity body must match the preload
			cl.static = &pl.Want
		}
		s.clients = append(s.clients, cl)
		// Every episode's clients draw their own streams.
		s.streams = append(s.streams, NewStream(workload, h.P, h.W, seed, episode*h.P.Clients+c))
	}
	// The operator is another actor on its own connection: one request
	// every few seconds, which must not occupy a user's connection.
	s.operator = newClient(&http.Client{Transport: newTransport(1), Timeout: 120 * time.Second}, dep.sys, h.P, h.W, checks)
	return s
}

// warmup runs unmeasured ops so connections are open, caches hold the
// hot set and the runtime has grown its heap.
func (s *session) warmup() {
	var wg sync.WaitGroup
	per := s.h.P.WarmupOps[s.workload] / len(s.clients)
	for i, cl := range s.clients {
		wg.Add(1)
		go func(cl *Client, st *Stream) {
			defer wg.Done()
			for n := 0; n < per; n++ {
				op := st.Next()
				cl.Do(&op, 0)
			}
		}(cl, s.streams[i])
	}
	wg.Wait()
}

// measure runs the workload for d and samples the server around it.
func (s *session) measure(d time.Duration, tracer *Tracer, keepOps int) (*window, error) {
	w := &window{tracer: tracer, sentOps: make(map[OpKind][]Op)}
	for _, cl := range append([]*Client{s.operator}, s.clients...) {
		cl.tr = tracer
	}
	nodes := s.dep.sys.Nodes

	// The floor: what loopback and net/http cost with no handler work.
	for i := 0; i < 200; i++ {
		t0 := time.Now()
		resp, err := control.Get(nodes[i%len(nodes)].URL + "/healthz")
		if err != nil {
			return nil, err
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		w.floor.add(time.Since(t0))
	}

	before, err := scrapeNodes(control, nodes)
	if err != nil {
		return nil, err
	}
	procBefore, err := sumProc(nodes)
	if err != nil {
		return nil, err
	}
	selfBefore := selfCPU()

	start := time.Now()
	// Read the servers' CPU once a second, so CPU per op can be taken per
	// slice like the other steady-state metrics.
	stopTicks := make(chan struct{})
	ticksDone := make(chan struct{})
	go func() {
		defer close(ticksDone)
		tick := time.NewTicker(time.Second)
		defer tick.Stop()
		for {
			select {
			case <-tick.C:
				if now, err := sumProc(nodes); err == nil {
					w.cpuTicks = append(w.cpuTicks, now.cpu-procBefore.cpu)
				}
			case <-stopTicks:
				return
			}
		}
	}()
	var recs []*recorder
	var kept []map[OpKind][]Op
	if s.workload == Maintain {
		recs, kept = s.openLoop(start, d, keepOps)
	} else {
		recs, kept = s.closedLoop(start, d, keepOps)
	}
	w.elapsed = time.Since(start)
	close(stopTicks)
	<-ticksDone

	w.loadgen = selfCPU() - selfBefore
	procAfter, err := sumProc(nodes)
	if err != nil {
		return nil, err
	}
	after, err := scrapeNodes(control, nodes)
	if err != nil {
		return nil, err
	}
	w.metrics = after.minus(before)
	w.server = procSample{cpu: procAfter.cpu - procBefore.cpu, hwmKB: procAfter.hwmKB, writeBytes: procAfter.writeBytes - procBefore.writeBytes}
	w.rec = newRecorder()
	for _, r := range recs {
		w.rec.merge(r)
	}
	for _, m := range kept {
		for k, ops := range m {
			w.sentOps[k] = append(w.sentOps[k], ops...)
		}
	}
	return w, nil
}

func selfCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// closedLoop: each client sends its next op when the previous answer
// has arrived. Ops that start inside the window are counted, and the
// window ends when the last of them completes.
func (s *session) closedLoop(start time.Time, d time.Duration, keepOps int) ([]*recorder, []map[OpKind][]Op) {
	recs := make([]*recorder, len(s.clients))
	kept := make([]map[OpKind][]Op, len(s.clients))
	deadline := start.Add(d)
	var wg sync.WaitGroup
	for i := range s.clients {
		recs[i], kept[i] = newRecorder(), make(map[OpKind][]Op)
		wg.Add(1)
		go func(cl *Client, st *Stream, rec *recorder, keep map[OpKind][]Op) {
			defer wg.Done()
			for {
				t0 := time.Now()
				if !t0.Before(deadline) {
					return
				}
				op := st.Next()
				out := cl.Do(&op, int(s.opSeq.Add(1)))
				rec.record(out, time.Since(t0), time.Since(start), s.h.P)
				if out.ok && len(keep[op.Kind]) < keepOps/len(s.clients) {
					keep[op.Kind] = append(keep[op.Kind], op)
				}
			}
		}(s.clients[i], s.streams[i], recs[i], kept[i])
	}
	wg.Wait()
	return recs, kept
}

// openLoop: ops are due on a fixed timeline whatever the server does.
// Two sender connections take due ops in order; a sender that finds
// its op overdue sends at once, and latency counts from the due time,
// so a stall is charged to every op that had to wait behind it. The
// operator's ops ride their own connection.
func (s *session) openLoop(start time.Time, d time.Duration, keepOps int) ([]*recorder, []map[OpKind][]Op) {
	var user, oper []Op
	keep := make(map[OpKind][]Op)
	for _, op := range OpenLoopSchedule(s.h.P, s.streams[0], d) {
		if op.Kind.isOperator() {
			oper = append(oper, op)
			continue
		}
		user = append(user, op)
		if len(keep[op.Kind]) < keepOps {
			keep[op.Kind] = append(keep[op.Kind], op)
		}
	}
	run := func(cl *Client, ops []Op, next *atomic.Int64, rec *recorder) {
		for {
			i := int(next.Add(1)) - 1
			if i >= len(ops) {
				return
			}
			op := &ops[i]
			due := start.Add(op.At)
			if wait := time.Until(due); wait > 0 {
				time.Sleep(wait)
			}
			rec.late.add(max(time.Since(due), 0))
			out := cl.Do(op, int(s.opSeq.Add(1)))
			rec.record(out, time.Since(due), time.Since(start), s.h.P)
		}
	}
	var wg sync.WaitGroup
	var nextUser, nextOper atomic.Int64
	recs := make([]*recorder, 0, len(s.clients)+1)
	for _, cl := range s.clients {
		rec := newRecorder()
		recs = append(recs, rec)
		wg.Add(1)
		go func(cl *Client) { defer wg.Done(); run(cl, user, &nextUser, rec) }(cl)
	}
	rec := newRecorder()
	recs = append(recs, rec)
	wg.Add(1)
	go func() { defer wg.Done(); run(s.operator, oper, &nextOper, rec) }()
	wg.Wait()
	return recs, []map[OpKind][]Op{keep}
}

// wrote sums what the session's clients had acknowledged.
func (s *session) wrote() Counts {
	total := Counts{Entity: make(map[string]*EntityCounts)}
	for _, cl := range append([]*Client{s.operator}, s.clients...) {
		total.merge(&cl.wrote)
	}
	return total
}

// checkState compares what the server reports with preload +
// acknowledged writes: totals from /api/stats and a sample of entity
// bodies. Histories are compared only when no sweep could have dropped
// any. Failed ops may or may not have been applied, so with failures
// the totals are bounded instead of pinned.
func (s *session) checkState(pl *Preload, failed int) {
	want := pl.Want.clone()
	wrote := s.wrote()
	want.merge(&wrote)
	swept := s.workload == Maintain

	var got rspserver.StatsResponse
	for _, n := range s.dep.sys.Nodes {
		var st rspserver.StatsResponse
		if err := getJSON(control, n.URL+"/api/stats", &st); err != nil {
			s.checks.failf("/api/stats: %v", err)
			return
		}
		got.Reviews += st.Reviews
		got.Histories += st.Histories
		got.HistoryRecords += st.HistoryRecords
		got.InferredOpinions += st.InferredOpinions
		got.TrainingPairs += st.TrainingPairs
		got.Entities += st.Entities
	}
	within := func(name string, got, want int) {
		if got < want || got > want+failed {
			s.checks.failf("/api/stats %s = %d, preload + acknowledged = %d (%d ops failed)", name, got, want, failed)
		}
	}
	within("reviews", got.Reviews, want.Reviews)
	within("inferred_opinions", got.InferredOpinions, want.Ratings)
	if !swept {
		within("histories", got.Histories, want.Histories)
		within("history_records", got.HistoryRecords, want.Records)
	}
	if got.TrainingPairs != want.TrainPairs {
		s.checks.failf("/api/stats training_pairs = %d, preload has %d", got.TrainingPairs, want.TrainPairs)
	}
	if got.Entities != len(s.h.W.Catalog) {
		s.checks.failf("/api/stats entities = %d, catalog has %d", got.Entities, len(s.h.W.Catalog))
	}
	if failed > 0 {
		return // per-entity counts cannot be pinned either
	}
	// The entities written to most recently are the ones a lost or
	// doubled write would show on; add the hottest ranks for coverage.
	keys := append([]string(nil), s.h.W.Ranked[:min(20, len(s.h.W.Ranked))]...)
	for k := range wrote.Entity {
		if len(keys) >= 60 {
			break
		}
		keys = append(keys, k)
	}
	for _, key := range keys {
		var res rspserver.WireResult
		if err := getJSON(control, s.dep.sys.forKey(key)+"/api/entity?key="+key, &res); err != nil {
			s.checks.failf("/api/entity %s: %v", key, err)
			continue
		}
		checkEntityCounts(s.checks, s.h.W, res, &want, !swept)
	}
}

// Run executes one workload end to end.
//
// An untraced run is cut into episodes: each sets the system up afresh
// — copy of the preload, new rspd processes, new token key, recovery,
// discovery, warm-up — and measures its share of the window. Two
// server processes on identical state differ by several percent for
// their whole lives (the key they happened to draw signs slower, the
// heap landed differently), which no amount of measuring one process
// averages out. Steady-state metrics are medians over the seconds of
// all episodes, and set-up time is the median episode's.
func (h *Harness) Run(workload string, seed int64, windowDur time.Duration, trace bool) (*Result, error) {
	checks := &Checks{}
	base := filepath.Join(h.Out, fmt.Sprintf("%s-%d", workload, seed))
	defer os.RemoveAll(base)

	t0 := time.Now()
	pl, preloadDirs, err := h.writePreload(workload, seed, filepath.Join(base, "preload"))
	if err != nil {
		return nil, err
	}
	preloadDur := time.Since(t0)

	// Recovery is timed on probes of its own: servers started on the
	// preload with a token key small enough that finding its primes
	// takes no time, and stopped once ready. With the production key
	// the random prime search is a third of a start on average and
	// several-fold apart between two starts; that luck is not the
	// store's. (The episodes below start with the production key, and
	// their starts are part of setup_s.)
	probe := h.P
	probe.KeyBits = 512
	var recovers []float64
	for i := 0; i < h.P.RecoveryProbes; i++ {
		dep, err := h.deploy(workload, preloadDirs, filepath.Join(base, "probe"), probe)
		if err != nil {
			return nil, err
		}
		recovers = append(recovers, dep.recover.Seconds())
		dep.teardown()
	}

	episodes := h.P.Episodes
	if trace {
		episodes = 1
	}
	res := &Result{Workload: workload, Seed: seed, WindowS: windowDur.Seconds()}
	var setups []float64
	var wins []*window
	var plain *window
	for ep := 0; ep < episodes; ep++ {
		err := func() error {
			c0 := time.Now()
			dep, err := h.deploy(workload, preloadDirs, filepath.Join(base, "run"), h.P)
			if err != nil {
				return err
			}
			defer dep.teardown()
			if err := discover(control, dep.sys, h.W, checks); err != nil {
				return err
			}
			sess := h.newSession(workload, seed, ep, dep, checks, pl)
			sess.warmup()
			setups = append(setups, time.Since(c0).Seconds())

			var win *window
			if !trace {
				if win, err = sess.measure(windowDur/time.Duration(episodes), nil, 0); err != nil {
					return err
				}
			} else {
				// An untraced window first: the difference in throughput
				// between it and the traced one is what tracing costs.
				if plain, err = sess.measure(windowDur/3, nil, 0); err != nil {
					return err
				}
				if win, err = sess.measure(windowDur, NewTracer(), h.P.LadderSample); err != nil {
					return err
				}
				res.PerLayer = liveLayers(workload, win, plain)
			}
			wins = append(wins, win)

			sess.checkState(pl, win.rec.failed)
			if workload == Ring3 {
				if err := checkDirectory(control, dep.sys, h.W, checks); err != nil {
					return err
				}
				all, err := scrapeNodes(control, dep.sys.Nodes)
				if err != nil {
					return err
				}
				if m := all.sum("cluster_misroutes_total"); m != 0 {
					checks.failf("cluster_misroutes_total = %v, want 0", m)
				}
			}
			if workload == Contribute && ep == episodes-1 {
				took, err := h.crashAndRecover(sess, pl, win.rec.failed)
				if err != nil {
					return err
				}
				if trace {
					res.PerLayer["store.recover_after_kill_ms"] = ms(took)
				}
			}
			return nil
		}()
		if err != nil {
			return nil, err
		}
	}
	setupS := h.WorldDur.Seconds() + preloadDur.Seconds() + median(setups)
	res.EndToEnd, res.Samples = endToEnd(wins, setupS, median(recovers))
	for _, win := range wins {
		res.Attempted += win.rec.attempted
		res.Failed += win.rec.failed
	}

	if trace {
		win := wins[0]
		ladder, err := h.Ladder(workload, pl, preloadDirs, win, filepath.Join(base, "ladder"))
		if err != nil {
			return nil, err
		}
		for k, v := range ladder {
			res.PerLayer[k] = v
		}
		res.PerLayer["world.catalog_ms"] = ms(h.WorldDur)
		res.PerLayer["world.preload_ms"] = ms(preloadDur)
		attribute(res.PerLayer)
		path := filepath.Join(h.Out, "trace-"+workload+".json")
		if err := win.tracer.WriteFile(path, workload, seed); err != nil {
			return nil, err
		}
		h.logf("trace written to %s", path)
	}
	res.CheckFail, res.Checks = checks.Failed()
	return res, nil
}

// crashAndRecover is the durability check: SIGKILL the server with no
// shutdown hook run, restart it on the same directory, and require
// every acknowledged contribution and review exactly once.
func (h *Harness) crashAndRecover(s *session, pl *Preload, failed int) (time.Duration, error) {
	old := s.dep.sys.Nodes[0]
	old.Kill()
	port, err := freePort()
	if err != nil {
		return 0, err
	}
	node, err := spawn(h.Bin, old.Dir, port, h.P, s.dep.extra...)
	if err != nil {
		return 0, err
	}
	s.dep.sys.Nodes[0] = node
	took, err := node.WaitReady(control, 60*time.Second)
	if err != nil {
		return 0, err
	}
	s.checkState(pl, failed)
	return took, nil
}

// endToEnd derives the end-to-end metrics from a run's windows, one
// per episode. A metric the workload has no ops for is nil.
func endToEnd(wins []*window, setupS, recoverS float64) (map[string]*float64, map[string]int) {
	rec := newRecorder()
	var sl sliced
	var rates, hwm []float64
	var cpu time.Duration
	for _, w := range wins {
		rec.merge(w.rec)
		sl.add(w.rec.user, w.cpuTicks, int(w.elapsed.Seconds()))
		rates = append(rates, float64(w.rec.okOps)/w.elapsed.Seconds())
		hwm = append(hwm, float64(w.server.hwmKB)/1024)
		cpu += w.server.cpu
	}
	if len(sl.cpus) == 0 { // windows under a second have no whole second to read
		sl.cpus = []float64{ratio(ms(cpu), float64(rec.okOps))}
	}
	out := make(map[string]*float64)
	counts := make(map[string]int)
	set := func(name string, v float64) { out[name] = &v }
	pct := func(name string, s *samples, q float64) {
		out[name] = nil
		if s.n() == 0 {
			return
		}
		v, _ := s.tail(q)
		set(name, ms(v))
		counts[name] = s.n()
	}
	set("setup_s", setupS)
	set("recover_s", recoverS)

	// Throughput is each episode's successful ops over its window, the
	// median episode's. The other steady-state metrics are medians over
	// whole seconds, of every episode: a second disturbed by a neighbour,
	// a collection or a compaction moves one slice, not the reading.
	// Tails need every sample and are pooled.
	set("ops_per_s", median(rates))
	set("op_p50_ms", median(sl.p50s))
	set("op_p90_ms", median(sl.p90s))
	set("server_cpu_ms_per_op", median(sl.cpus))
	for _, name := range []string{"ops_per_s", "op_p50_ms", "op_p90_ms"} {
		counts[name] = rec.okOps
	}
	set("server_rss_mb", median(hwm))

	pct("op_p99_ms", rec.pooled(userKinds...), 0.99)
	reads := rec.pooled(readKinds...)
	pct("read_p50_ms", reads, 0.50)
	pct("read_p99_ms", reads, 0.99)
	pct("search_p50_ms", rec.pooled(OpSearch), 0.50)
	pct("entity_p50_ms", rec.pooled(OpEntity), 0.50)
	pct("contribute_p50_ms", rec.pooled(OpContribute), 0.50)
	pct("contribute_p99_ms", rec.pooled(OpContribute), 0.99)

	userAttempts := rec.attempted - rec.pooled(OpSweep, OpRetrain).n()
	set("slo_miss_share", ratio(float64(rec.sloMiss), float64(userAttempts)))
	out["sweep_s"] = nil
	if sweeps := rec.pooled(OpSweep); sweeps.n() > 0 {
		set("sweep_s", sweeps.quantile(0.5).Seconds())
		counts["sweep_s"] = sweeps.n()
	}
	return out, counts
}

// sliced collects per-second readings: one entry per whole second of
// every window added.
type sliced struct {
	p50s, p90s []float64 // ms
	cpus       []float64 // server CPU ms per successful op
}

// add cuts one window into its whole seconds. cpuTicks[i] is the server
// CPU consumed by the end of second i+1.
func (sl *sliced) add(user []userSample, cpuTicks []time.Duration, seconds int) {
	seconds = max(seconds, 1)
	lats := make([]samples, seconds)
	for _, u := range user {
		if i := int(u.end / time.Second); i < seconds {
			lats[i].add(u.lat)
		}
	}
	var prev time.Duration
	for i := range lats {
		n := lats[i].n()
		if n > 0 {
			sl.p50s = append(sl.p50s, ms(lats[i].quantile(0.5)))
			sl.p90s = append(sl.p90s, ms(lats[i].quantile(0.9)))
		}
		if i < len(cpuTicks) {
			if n > 0 {
				sl.cpus = append(sl.cpus, ms(cpuTicks[i]-prev)/float64(n))
			}
			prev = cpuTicks[i]
		}
	}
}
