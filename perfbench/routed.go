package main

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"time"

	"sacsearch/client"
	"sacsearch/internal/core"
	"sacsearch/internal/gen"
	"sacsearch/internal/geom"
	"sacsearch/internal/graph"
	"sacsearch/internal/kcore"
	"sacsearch/internal/router"
	"sacsearch/internal/server"
	"sacsearch/internal/shard"
	"sacsearch/internal/telemetry"
)

// routed shape: five social communities, each in its own spatial disk,
// stacked along y. The count-balanced two-way partition splits the middle
// one, so its queries take the assembled path while the outer four certify
// on their owner shard.
const (
	routedClusters   = 5
	routedClusterN   = 600
	routedClusterDeg = 12
	routedK          = 4
	routedPerCluster = 8  // queries per cluster per client per read burst
	routedBursts     = 2  // write bursts per round: S, S⁻¹
	routedBatch      = 10 // two per cluster, so the assembled share is fixed
	routedGraphSeed  = 0x5ac7
)

// constellation builds the routed graph from the seed.
func constellation(seed int64) *graph.Graph {
	b := graph.NewBuilder(routedClusters * routedClusterN)
	rnd := rand.New(rand.NewSource(seed))
	for c := 0; c < routedClusters; c++ {
		sub := gen.SocialGraph(routedClusterN, routedClusterN*routedClusterDeg/2, seed*101+int64(c)+1).Build()
		base := c * routedClusterN
		cy := 0.1 + 0.2*float64(c)
		for v := 0; v < routedClusterN; v++ {
			ang := 2 * math.Pi * rnd.Float64()
			rr := 0.06 * math.Sqrt(rnd.Float64())
			b.SetLoc(graph.V(base+v), geom.Point{X: 0.5 + rr*math.Cos(ang), Y: cy + rr*math.Sin(ang)})
			for _, w := range sub.Neighbors(graph.V(v)) {
				if graph.V(v) < w {
					b.AddEdge(graph.V(base+v), graph.V(base)+w)
				}
			}
		}
	}
	return b.Build()
}

func runRouted(env *Env) (*Report, error) {
	rep := &Report{E2E: map[string]float64{}, Layer: map[string]float64{}}
	t0 := time.Now()
	// The graph is fixed, like the dataset presets; the seed draws the
	// queries and the writes.
	g := constellation(routedGraphSeed)
	rep.Layer["graph.build_s"] = time.Since(t0).Seconds()
	t1 := time.Now()
	cores := kcore.Decompose(g)
	rep.Layer["kcore.decompose_s"] = time.Since(t1).Seconds()
	mirror := NewMirror(g)
	base := g.Clone()

	// Queries: the same number from every cluster, so the certified and
	// assembled shares are fixed by construction.
	rnd := rand.New(rand.NewSource(env.Seed))
	chunks := make([][][]core.Query, env.Clients)
	for c := range chunks {
		chunks[c] = make([][]core.Query, routedBursts)
	}
	var firstOf [routedClusters][]int32 // each cluster's query vertices
	for cl := 0; cl < routedClusters; cl++ {
		var eligible []graph.V
		for v := cl * routedClusterN; v < (cl+1)*routedClusterN; v++ {
			if int(cores[v]) >= routedK {
				eligible = append(eligible, graph.V(v))
			}
		}
		rnd.Shuffle(len(eligible), func(i, j int) { eligible[i], eligible[j] = eligible[j], eligible[i] })
		i := 0
		for c := range chunks {
			for b := range chunks[c] {
				for n := 0; n < routedPerCluster; n++ {
					v := eligible[i%len(eligible)]
					i++
					chunks[c][b] = append(chunks[c][b], core.Query{Algo: "appfast", Q: v, K: routedK, EpsF: core.Float(0.5)})
					firstOf[cl] = append(firstOf[cl], int32(v))
				}
			}
		}
	}
	// Each chunk opens with two queries per cluster (the batch items, and
	// singles too), then the rest in random order.
	for c := range chunks {
		for b := range chunks[c] {
			ch := chunks[c][b]
			var head, tail []core.Query
			for i, q := range ch {
				if i%routedPerCluster < routedBatch/routedClusters {
					head = append(head, q)
				} else {
					tail = append(tail, q)
				}
			}
			rnd.Shuffle(len(tail), func(i, j int) { tail[i], tail[j] = tail[j], tail[i] })
			chunks[c][b] = append(head, tail...)
		}
	}
	// One mover in each outer community, which lie on different shards, so
	// every seed's write stream touches both shards alike.
	var set []Write
	for _, cl := range []int{0, routedClusters - 1} {
		v := firstOf[cl][rnd.Intn(len(firstOf[cl]))]
		home := mirror.Loc(v)
		set = append(set, Write{Checkin: true, V: v, Loc: geom.Point{X: home.X + (rnd.Float64()*2-1)*0.01, Y: home.Y + (rnd.Float64()*2-1)*0.01}})
	}
	inv := make([]Write, len(set))
	for i, w := range set {
		inv[i] = mirror.Inverse(w)
	}
	sets := [][]Write{set, inv}

	// Topology: two shard daemons and a router, all on loopback.
	m, err := shard.Partition(g, 2)
	if err != nil {
		return nil, err
	}
	tr := &Tracer{}
	var closers []func()
	teardown := func() {
		for i := len(closers) - 1; i >= 0; i-- {
			closers[i]()
		}
	}
	defer teardown()
	shardCounts := make([]*HandlerCounts, 2)
	urls := make([][]string, 2)
	for id := 0; id < 2; id++ {
		sub, err := shard.Subgraph(g, m, id)
		if err != nil {
			return nil, err
		}
		sv, err := shard.NewServing(m, id)
		if err != nil {
			return nil, err
		}
		srv := server.NewWithConfig(fmt.Sprintf("shard-%d", id), sub, server.Config{Shard: sv})
		closers = append(closers, srv.Close)
		shardCounts[id] = &HandlerCounts{}
		dm, err := listen(tr.Wrap("shard", shardCounts[id], srv))
		if err != nil {
			return nil, err
		}
		closers = append(closers, dm.close)
		urls[id] = []string{dm.url}
	}
	reg := telemetry.NewRegistry()
	hc := newHTTPClient()
	rt, err := router.New(router.Config{Map: m, Shards: urls, Metrics: reg, ServeMetrics: true,
		ClientOptions: []client.Option{client.WithRetries(0), client.WithHTTPClient(hc)}})
	if err != nil {
		return nil, err
	}
	closers = append(closers, rt.DrainSubscriptions)
	rdm, err := listen(tr.Wrap("router", nil, rt))
	if err != nil {
		return nil, err
	}
	closers = append(closers, rdm.close)
	cl, err := newClient(rdm.url)
	if err != nil {
		return nil, err
	}
	ctx := context.Background()

	plan := &phasedPlan{ctx: ctx, cl: cl, tr: tr, sets: sets, chunks: chunks, batchN: routedBatch}
	plan.warmUp(env.Clients)
	rep.E2E["setup_s"] = time.Since(processStart).Seconds()

	mark := markRuntime()
	ph, err := measurePhased(env, plan, rdm.url)
	if err != nil {
		return nil, err
	}
	allocBytes, gcFrac := mark.since()
	tallies, before, after := ph.tallies, ph.before, ph.after
	if env.Trace {
		traceSummary(rep, ph.windows)
		if err := tr.WriteFile(fmt.Sprintf("%s/trace-routed-%d.jsonl", env.Workdir, env.Seed)); err != nil {
			return nil, err
		}
	}

	var lat, writes []float64
	var log answerLog
	batchItems := 0
	for _, t := range tallies {
		lat = append(lat, t.lat...)
		writes = append(writes, t.writes...)
		rep.Attempted += t.attempted
		rep.Failed += t.failed
		for _, e := range t.errs {
			rep.fail("%s", e)
		}
		for _, a := range t.answers.list {
			log.add(a.tag, a.a, a.batch)
		}
		batchItems += t.batchItems
	}
	summarize(rep, ph.windows)

	// Cross-check: every leg the router counts reached a shard, and no
	// shard request came from anywhere else.
	final, err := scrapeURL(rdm.url)
	if err != nil {
		return nil, err
	}
	for _, kind := range []string{"search", "expand", "range", "vertex", "checkin", "edge", "info", "health"} {
		seen := shardCounts[0].Get(kind) + shardCounts[1].Get(kind)
		if got := int(final[`sac_router_legs_total{kind="`+kind+`"}`]); got != seen {
			rep.fail("router counted %d %s legs, shards served %d", got, kind, seen)
		}
	}

	delta := func(name string) float64 { return sumPrefix(after, name) - sumPrefix(before, name) }
	routedQs := float64(len(lat) + batchItems)
	legs := 0.0
	for _, kind := range []string{"search", "expand", "range"} {
		legs += after[`sac_router_legs_total{kind="`+kind+`"}`] - before[`sac_router_legs_total{kind="`+kind+`"}`]
	}
	rep.Layer["router.legs_per_query"] = legs / routedQs
	certified := after[`sac_router_query_path_total{path="certified"}`] - before[`sac_router_query_path_total{path="certified"}`]
	assembled := after[`sac_router_query_path_total{path="assembled"}`] - before[`sac_router_query_path_total{path="assembled"}`]
	if paths := delta("sac_router_query_path_total"); paths > 0 {
		rep.Layer["router.path_share.certified"] = certified / paths
		rep.Layer["router.path_share.assembled"] = assembled / paths
	}
	if assembled > 0 {
		rep.Layer["router.expand_rounds_per_assembled"] = delta("sac_router_expand_rounds_total") / assembled
	}
	rep.Layer["runtime.alloc_bytes_per_query"] = allocBytes / routedQs
	rep.Layer["runtime.gc_cpu_fraction"] = gcFrac
	if env.Trace {
		spans := tr.Spans()
		httpLayers(rep, spans, "router", nil)
		var self []float64
		for _, m := range byReq(spans) {
			rs := m["router"]
			if len(rs) == 1 && rs[0].Name == "query" {
				self = append(self, ms(rs[0].Dur()-covered(rs[0], m["shard"])))
			}
		}
		rep.Layer["router.self_ms"] = quantile(self, 0.5)
		for _, kind := range []string{"search", "expand"} {
			rep.Layer["shard.leg_ms."+kind] = quantile(spanMs(spans, "shard", kind), 0.5)
			var b []float64
			for _, s := range spans {
				if s.Layer == "shard" && s.Name == kind {
					b = append(b, float64(s.Bytes))
				}
			}
			rep.Layer["shard.leg_bytes."+kind] = mean(b)
		}
	}

	// Answers: independent checks on the mirror, and byte equality with an
	// in-process single-engine search on the same state.
	chk := NewChecker(mirror)
	applied, sameRef := 0, 0
	compared := checkTagged(rep, chk, log.list, func(tag uint64) error {
		if err := plan.replayTo(mirror, &applied, tag); err != nil {
			return err
		}
		sg := base.Clone()
		for v := 0; v < sg.NumVertices(); v++ {
			sg.SetLoc(graph.V(v), mirror.Loc(int32(v)))
		}
		ref := core.NewSearcher(sg)
		for _, t := range log.list {
			if t.tag != tag {
				continue
			}
			q := core.Query{Algo: t.a.Algo, Q: graph.V(t.a.Q), K: t.a.K, EpsF: core.Float(t.a.Param)}
			res, err := ref.Search(ctx, q)
			want, err := fromResult(q, res, err)
			if err != nil {
				return fmt.Errorf("reference search: %w", err)
			}
			if !sameAnswer(want, t.a) || (t.a.HasDelta && !closeRel(want.Delta, t.a.Delta)) {
				rep.fail("routed answer differs from single-engine answer: %s on state %d", t.a.QueryKey(), tag)
			}
			sameRef++
		}
		return nil
	})
	if compared == 0 {
		rep.fail("no batch answer could be compared with a single answer on the same state")
	}
	fmt.Fprintf(stderr, "perfbench: routed checked %d distinct answers (%d reused), %d batch≡single, %d routed≡single-engine\n",
		chk.Checks, chk.Reused, compared, sameRef)
	log = answerLog{}
	chk, mirror = nil, nil
	rep.E2E["live_heap_mb"] = liveHeapMiB()
	return rep, nil
}
