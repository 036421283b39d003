package main

import (
	"context"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"os"
	"sort"
	"strings"
	"sync"
	"time"

	"sacsearch/client"
	"sacsearch/internal/core"
	"sacsearch/internal/dataset"
	"sacsearch/internal/geom"
	"sacsearch/internal/kcore"
	"sacsearch/internal/server"
	"sacsearch/internal/store"
	"sacsearch/internal/telemetry"
)

// serve-churn shape: brightkite at 5% (2,570 vertices), where one k = 4
// search costs about a millisecond, served by one durable daemon.
const (
	churnScale     = 0.05
	churnBursts    = 4  // write bursts per round: S0, S0⁻¹, S1, S1⁻¹
	churnChunk     = 40 // single queries per client per read burst
	churnBatch     = 8  // items of the one /v1/batch call per read burst
	churnMovers    = 4  // check-ins per write set
	churnEdges     = 2  // edge inserts and, separately, deletes per write set
	churnMoveRange = 0.05
)

// churnClasses is one read burst's mix per client: a single latency class
// (k = 4 approximations, about a millisecond each), so p50 and p90 both
// land inside it.
var churnClasses = []class{
	{"appfast", 4, 0.5, churnChunk * 6 / 10},
	{"appinc", 4, 0, churnChunk * 4 / 10},
}

// subRecorder drains one subscription, keeping every event and when it
// arrived.
type subRecorder struct {
	q      client.Query
	sub    *client.Subscription
	mu     sync.Mutex
	events []subEvent
	at     []time.Time
	done   chan struct{}
}

func (r *subRecorder) run() {
	defer close(r.done)
	for ev := range r.sub.Events {
		now := time.Now()
		r.mu.Lock()
		r.events = append(r.events, ev)
		r.at = append(r.at, now)
		r.mu.Unlock()
	}
}

func (r *subRecorder) deltas() (n int, at []time.Time) {
	r.mu.Lock()
	defer r.mu.Unlock()
	for i, ev := range r.events {
		if ev.Kind == "delta" {
			n++
			at = append(at, r.at[i])
		}
	}
	return n, at
}

// daemon is one in-process HTTP listener with its handler wrapped by the
// benchmark's tracer.
type daemon struct {
	srv  *http.Server
	url  string
	done chan struct{}
}

func listen(h http.Handler) (*daemon, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	d := &daemon{srv: &http.Server{Handler: h, ReadHeaderTimeout: 5 * time.Second}, url: "http://" + ln.Addr().String(), done: make(chan struct{})}
	go func() {
		defer close(d.done)
		d.srv.Serve(ln)
	}()
	return d, nil
}

func (d *daemon) close() {
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := d.srv.Shutdown(ctx); err != nil {
		d.srv.Close()
	}
	<-d.done
}

// newClient returns a typed client with no retries (a retry would hide a
// failure and double-count a leg) and enough idle connections for every
// closed-loop client.
func newClient(url string) (*client.Client, error) {
	return client.New(url, client.WithRetries(0), client.WithHTTPClient(newHTTPClient()))
}

func newHTTPClient() *http.Client {
	return &http.Client{Timeout: 60 * time.Second, Transport: &http.Transport{MaxIdleConnsPerHost: 64}}
}

func scrapeURL(url string) (map[string]float64, error) {
	resp, err := http.Get(url + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	return scrape(string(b)), nil
}

// sumPrefix sums every scraped series whose name starts with name (all
// label values of one family).
func sumPrefix(m map[string]float64, name string) float64 {
	s := 0.0
	for k, v := range m {
		if k == name || strings.HasPrefix(k, name+"{") {
			s += v
		}
	}
	return s
}

// phaseTally is one client's record of a measured phase.
type phaseTally struct {
	lat        []float64
	writes     []float64
	acks       []time.Time
	batchItems int
	batchTime  time.Duration
	answers    answerLog
	searchUs   map[string]float64 // request id → stats.elapsedMicros
	stats      core.Stats
	searches   int
	attempted  int
	failed     int
	errs       []string
}

func (t *phaseTally) failOp(err error) {
	t.failed++
	if len(t.errs) < 5 {
		t.errs = append(t.errs, err.Error())
	}
}

func runServeChurn(env *Env) (*Report, error) {
	rep := &Report{E2E: map[string]float64{}, Layer: map[string]float64{}}
	t0 := time.Now()
	d, err := dataset.Load("brightkite", churnScale)
	if err != nil {
		return nil, err
	}
	g := d.Graph
	rep.Layer["graph.build_s"] = time.Since(t0).Seconds()
	t1 := time.Now()
	kcore.Decompose(g)
	rep.Layer["kcore.decompose_s"] = time.Since(t1).Seconds()
	mirror := NewMirror(g)

	// Each client's sequence is cut into one chunk per read burst; chunk b
	// always follows write burst b, so it always sees the same state.
	chunks := drawQueries(g, churnClasses, env.Clients, churnBursts, env.Seed)
	rnd := rand.New(rand.NewSource(env.Seed))
	// Two write sets, each with its inverse, computed against the base
	// state: movers go to a nearby point, absent edges between members of
	// the query pool are inserted, present edges of other query vertices are
	// deleted. Targets within a set are distinct, so writes commute and a
	// burst's result does not depend on which client's write lands first.
	used := map[int32]bool{}
	pick := func() int32 {
		for {
			c := chunks[rnd.Intn(len(chunks))][rnd.Intn(churnBursts)]
			v := int32(c[rnd.Intn(len(c))].Q)
			if !used[v] {
				used[v] = true
				return v
			}
		}
	}
	var sets [][]Write
	var subQs []int32
	for s := 0; s < churnBursts/2; s++ {
		var set []Write
		for i := 0; i < churnMovers; i++ {
			v := pick()
			subQs = append(subQs, v)
			home := mirror.Loc(v)
			set = append(set, Write{Checkin: true, V: v, Loc: geom.Point{
				X: home.X + (rnd.Float64()*2-1)*churnMoveRange, Y: home.Y + (rnd.Float64()*2-1)*churnMoveRange}})
		}
		for i := 0; i < churnEdges; i++ {
			u, w := pick(), pick()
			for mirror.HasEdge(u, w) {
				w = pick()
			}
			set = append(set, Write{U: u, W: w, Insert: true})
			x := pick()
			y := mirror.adj[x][rnd.Intn(len(mirror.adj[x]))]
			for used[y] {
				y = mirror.adj[x][rnd.Intn(len(mirror.adj[x]))]
			}
			used[y] = true
			set = append(set, Write{U: x, W: y, Insert: false})
		}
		inv := make([]Write, len(set))
		for i, w := range set {
			inv[i] = mirror.Inverse(w)
		}
		sets = append(sets, set, inv)
	}

	dir, err := os.MkdirTemp(env.Workdir, "serve-churn-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	reg := telemetry.NewRegistry()
	t2 := time.Now()
	policy, err := store.ParseFsyncPolicy("interval")
	if err != nil {
		return nil, err
	}
	st, err := store.Open(dir, store.Options{Init: g, Fsync: policy, Metrics: reg})
	if err != nil {
		return nil, err
	}
	rep.Layer["store.open_s"] = time.Since(t2).Seconds()
	srv := server.NewWithStore("bench", st, server.Config{Metrics: reg, ServeMetrics: true})
	tr := &Tracer{}
	dm, err := listen(tr.Wrap("server", nil, srv))
	if err != nil {
		srv.Close()
		st.Close()
		return nil, err
	}
	teardown := func() {
		srv.DrainSubscriptions()
		dm.close()
		srv.Close()
		st.Close()
	}
	cl, err := newClient(dm.url)
	if err != nil {
		teardown()
		return nil, err
	}
	ctx := context.Background()
	var subs []*subRecorder
	for _, v := range subQs {
		q := client.Query{Q: int64(v), K: 4, Algo: "appfast", EpsF: client.Float(0.5)}
		sub, err := cl.Subscribe(ctx, q, &client.SubscribeOptions{Buffer: 1024})
		if err != nil {
			teardown()
			return nil, fmt.Errorf("subscribe: %w", err)
		}
		r := &subRecorder{q: q, sub: sub, done: make(chan struct{})}
		go r.run()
		subs = append(subs, r)
	}
	closeSubs := func() {
		for _, r := range subs {
			r.sub.Close()
			<-r.done
		}
	}
	defer teardown()
	defer closeSubs()

	plan := &phasedPlan{ctx: ctx, cl: cl, tr: tr, sets: sets, chunks: chunks, batchN: churnBatch}
	plan.warmUp(env.Clients)
	rep.E2E["setup_s"] = time.Since(processStart).Seconds()

	mark := markRuntime()
	ph, err := measurePhased(env, plan, dm.url)
	if err != nil {
		return nil, err
	}
	allocBytes, gcFrac := mark.since()
	tallies, before, after := ph.tallies, ph.before, ph.after
	if env.Trace {
		traceSummary(rep, ph.windows)
		if err := tr.WriteFile(fmt.Sprintf("%s/trace-serve-churn-%d.jsonl", env.Workdir, env.Seed)); err != nil {
			return nil, err
		}
	}

	var lat, writes []float64
	var acks []time.Time
	var log answerLog
	batchItems, writesAcked := 0, 0
	var stt core.Stats
	searches := 0
	searchUs := map[string]float64{}
	for _, t := range tallies {
		lat = append(lat, t.lat...)
		writes = append(writes, t.writes...)
		acks = append(acks, t.acks...)
		rep.Attempted += t.attempted
		rep.Failed += t.failed
		for _, e := range t.errs {
			rep.fail("%s", e)
		}
		for _, a := range t.answers.list {
			log.add(a.tag, a.a, a.batch)
		}
		batchItems += t.batchItems
		writesAcked += len(t.writes)
		stt.CandidateSize += t.stats.CandidateSize
		stt.FeasibilityChecks += t.stats.FeasibilityChecks
		stt.BinaryIters += t.stats.BinaryIters
		searches += t.searches
		for k, v := range t.searchUs {
			searchUs[k] = v
		}
	}
	summarize(rep, ph.windows)

	// Cross-checks: every acknowledged write is one applied engine event and
	// one WAL record.
	delta := func(name string) float64 { return sumPrefix(after, name) - sumPrefix(before, name) }
	if got := delta("sac_engine_applied"); int(got) != writesAcked {
		rep.fail("acknowledged writes %d, sac_engine_applied moved by %v", writesAcked, got)
	}
	if got := delta("sac_wal_last_seq"); int(got) != writesAcked {
		rep.fail("acknowledged writes %d, sac_wal_last_seq moved by %v", writesAcked, got)
	}

	// Layers.
	f := float64(searches)
	if searches > 0 {
		rep.Layer["core.candidates_per_query"] = float64(stt.CandidateSize) / f
		rep.Layer["core.feasibility_checks_per_query"] = float64(stt.FeasibilityChecks) / f
		rep.Layer["core.binary_iters_per_query"] = float64(stt.BinaryIters) / f
	}
	if q := delta("sac_query_duration_seconds_count"); q > 0 {
		rep.Layer["core.cache_hit_ratio"] = delta("sac_query_cache_hits_total") / q
	}
	rep.Layer["snapshot.publish_ms"] = (delta("sac_engine_publish_duration_seconds_sum") / delta("sac_engine_publish_duration_seconds_count")) * 1000
	rep.Layer["snapshot.events_per_publish"] = delta("sac_engine_batch_events_sum") / delta("sac_engine_batch_events_count")
	rep.Layer["snapshot.pool_clones"] = sumPrefix(after, "sac_engine_pool_clones")
	rep.Layer["wal.bytes_per_write"] = delta("sac_wal_bytes") / float64(writesAcked)
	rep.Layer["wal.fsyncs_per_s"] = delta("sac_wal_fsync_duration_seconds_count") / ph.wall.Seconds()
	if n := delta("sac_wal_fsync_duration_seconds_count"); n > 0 {
		rep.Layer["wal.fsync_ms"] = delta("sac_wal_fsync_duration_seconds_sum") / n * 1000
	}
	evals, skipped := delta("sac_subscription_evaluations_total"), delta("sac_subscription_skipped_by_gate_total")
	if evals+skipped > 0 {
		rep.Layer["subscribe.gate_skip_ratio"] = skipped / (evals + skipped)
	}
	rep.Layer["subscribe.evaluations_per_write"] = evals / float64(writesAcked)
	rep.Layer["runtime.alloc_bytes_per_query"] = allocBytes / float64(len(lat)+batchItems)
	rep.Layer["runtime.gc_cpu_fraction"] = gcFrac
	if env.Trace {
		httpLayers(rep, tr.Spans(), "server", searchUs)
	}

	// Subscriptions: wait until every delta the server emitted has arrived
	// and each replayed stream equals a fresh query on the final state.
	if err := checkSubscriptions(rep, cl, dm.url, subs, acks); err != nil {
		return nil, err
	}

	// Answers: replay the bursts on the mirror, in order.
	chk := NewChecker(mirror)
	applied := 0
	compared := checkTagged(rep, chk, log.list, func(tag uint64) error {
		return plan.replayTo(mirror, &applied, tag)
	})
	if compared == 0 {
		rep.fail("no batch answer could be compared with a single answer on the same state")
	}
	fmt.Fprintf(stderr, "perfbench: serve-churn checked %d distinct answers (%d reused), %d batch≡single comparisons, %d writes\n",
		chk.Checks, chk.Reused, compared, writesAcked)
	log = answerLog{}
	chk, mirror = nil, nil
	rep.E2E["live_heap_mb"] = liveHeapMiB()
	return rep, nil
}

// churnWrite sends one write and records its acknowledgement latency.
func churnWrite(ctx context.Context, cl *client.Client, tr *Tracer, w Write, t *phaseTally) {
	t.attempted++
	id := tr.NextID("w")
	rctx := client.WithRequestID(ctx, id)
	start := time.Now()
	var err error
	if w.Checkin {
		err = cl.CheckIn(rctx, int64(w.V), w.Loc.X, w.Loc.Y)
	} else {
		var res *client.EdgeResult
		res, err = cl.Edge(rctx, int64(w.U), int64(w.W), w.Insert)
		if err == nil && !res.Changed {
			err = fmt.Errorf("edge write %+v was a no-op", w)
		}
	}
	end := time.Now()
	if err != nil {
		t.failOp(err)
		return
	}
	tr.Add(Span{Req: id, Layer: "client", Name: "write", Start: start, End: end})
	t.writes = append(t.writes, ms(end.Sub(start)))
	t.acks = append(t.acks, end)
}

// churnRead runs one read burst: the chunk's single queries, then one batch
// of its first items (so each batch answer has a single answer on the same
// state to equal).
func churnRead(ctx context.Context, cl *client.Client, tr *Tracer, chunk []core.Query, batchN int, t *phaseTally, tag uint64, record bool) {
	for _, q := range chunk {
		t.attempted++
		id := tr.NextID("q")
		start := time.Now()
		res, err := cl.Query(client.WithRequestID(ctx, id), toClient(q))
		end := time.Now()
		a, err := fromClient(q, res, err)
		if err != nil {
			t.failOp(err)
			continue
		}
		t.lat = append(t.lat, ms(end.Sub(start)))
		tr.Add(Span{Req: id, Layer: "client", Name: "query", Start: start, End: end})
		if res != nil {
			t.searches++
			t.stats.CandidateSize += res.Stats.CandidateSize
			t.stats.FeasibilityChecks += res.Stats.FeasibilityChecks
			t.stats.BinaryIters += res.Stats.BinaryIters
			if tr.Enabled() {
				t.searchUs[id] = float64(res.Stats.ElapsedMicros)
			}
		}
		if record {
			t.answers.add(tag, a, false)
		}
	}
	var bqs []client.BatchQuery
	var qs []core.Query
	for _, q := range chunk {
		if q.Algo == "appfast" && len(bqs) < batchN {
			bqs = append(bqs, client.BatchQuery{Q: int64(q.Q), K: q.K})
			qs = append(qs, q)
		}
	}
	t.attempted++
	id := tr.NextID("b")
	start := time.Now()
	items, err := cl.Batch(client.WithRequestID(ctx, id), bqs, &client.BatchOptions{Algo: "appfast", EpsF: client.Float(0.5), Workers: 1})
	end := time.Now()
	if err != nil {
		t.failOp(err)
		return
	}
	tr.Add(Span{Req: id, Layer: "client", Name: "batch", Start: start, End: end})
	t.batchItems += len(items)
	t.batchTime += end.Sub(start)
	for i, it := range items {
		a, err := fromBatchItem(qs[i], it)
		if err != nil {
			t.failOp(err)
			continue
		}
		if record {
			t.answers.add(tag, a, true)
		}
	}
}

// httpLayers derives the daemon-side per-layer metrics from spans: handler
// time by route, search time (response stats), codec time (handler minus
// search), response bytes, and the client's own overhead (client span minus
// handler span).
func httpLayers(rep *Report, spans []Span, layer string, searchUs map[string]float64) {
	for _, name := range []string{"query", "batch"} {
		rep.Layer[layer+".handler_ms."+name] = quantile(spanMs(spans, layer, name), 0.5)
	}
	var writeMs []float64
	for _, n := range []string{"checkin", "edge"} {
		writeMs = append(writeMs, spanMs(spans, layer, n)...)
	}
	if layer == "server" {
		rep.Layer["server.handler_ms.write"] = quantile(writeMs, 0.5)
	}
	var search, codec, bytes, overhead []float64
	for id, m := range byReq(spans) {
		cs, hs := m["client"], m[layer]
		if len(cs) != 1 || len(hs) != 1 {
			continue
		}
		overhead = append(overhead, ms(cs[0].Dur()-hs[0].Dur()))
		if hs[0].Name != "query" {
			continue
		}
		bytes = append(bytes, float64(hs[0].Bytes))
		if us, ok := searchUs[id]; ok && layer == "server" {
			search = append(search, us/1000)
			codec = append(codec, ms(hs[0].Dur())-us/1000)
		}
	}
	rep.Layer["client.overhead_ms"] = quantile(overhead, 0.5)
	if layer == "server" {
		rep.Layer["server.search_ms"] = quantile(search, 0.5)
		rep.Layer["server.codec_ms"] = quantile(codec, 0.5)
		rep.Layer["server.response_bytes.query"] = mean(bytes)
	}
}

// checkSubscriptions waits for the delta streams to settle, then checks
// (a) deltas received equal sac_subscription_deltas_total and (b) each
// stream, replayed over its init, equals a fresh query on the final state.
// It also reports push latency: delta arrival minus the latest write
// acknowledgement before it.
func checkSubscriptions(rep *Report, cl *client.Client, url string, subs []*subRecorder, acks []time.Time) error {
	ctx := context.Background()
	deadline := time.Now().Add(10 * time.Second)
	var lastErr string
	for {
		m, err := scrapeURL(url)
		if err != nil {
			return err
		}
		received := 0
		for _, r := range subs {
			n, _ := r.deltas()
			received += n
		}
		lastErr = ""
		if emitted := int(sumPrefix(m, "sac_subscription_deltas_total")); emitted != received {
			lastErr = fmt.Sprintf("deltas received %d, sac_subscription_deltas_total %d", received, emitted)
		}
		for _, r := range subs {
			if lastErr != "" {
				break
			}
			r.mu.Lock()
			members, noComm, err := replay(r.events)
			r.mu.Unlock()
			if err != nil {
				lastErr = err.Error()
				break
			}
			fresh, qerr := cl.Query(ctx, r.q)
			freshNo := errors.Is(qerr, client.ErrNoCommunity)
			if qerr != nil && !freshNo {
				return qerr
			}
			if freshNo != noComm {
				lastErr = fmt.Sprintf("subscription q=%d: replay says noCommunity=%v, fresh query %v", r.q.Q, noComm, freshNo)
				continue
			}
			if fresh != nil {
				same := len(fresh.Members) == len(members)
				for _, v := range fresh.Members {
					same = same && members[v]
				}
				if !same {
					lastErr = fmt.Sprintf("subscription q=%d: replayed %d members, fresh query %d", r.q.Q, len(members), len(fresh.Members))
				}
			}
		}
		if lastErr == "" || time.Now().After(deadline) {
			break
		}
		time.Sleep(20 * time.Millisecond)
	}
	if lastErr != "" {
		rep.fail("%s", lastErr)
	}
	sort.Slice(acks, func(i, j int) bool { return acks[i].Before(acks[j]) })
	var push []float64
	for _, r := range subs {
		_, at := r.deltas()
		for _, t := range at {
			i := sort.Search(len(acks), func(i int) bool { return acks[i].After(t) })
			if i > 0 {
				push = append(push, ms(t.Sub(acks[i-1])))
			}
		}
	}
	rep.Layer["subscribe.push_ms"] = quantile(push, 0.5)
	return nil
}
