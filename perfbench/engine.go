package main

import (
	"context"
	"fmt"
	"math/rand"
	"strings"
	"sync"
	"time"

	"sacsearch"
	"sacsearch/internal/core"
	"sacsearch/internal/dataset"
	"sacsearch/internal/geom"
	"sacsearch/internal/graph"
	"sacsearch/internal/kcore"
	"sacsearch/internal/snapshot"
	"sacsearch/internal/telemetry"
)

// engineClasses is the engine workload's query mix per client and window
// on the full brightkite stand-in. Latency classes, fastest first: θ-SAC
// and the k = 8 and k = 6 approximations (5-15 ms) hold the median; the
// k = 4 approximations (~20-40 ms) and AppAcc (~25-150 ms) fill the top
// quarter, where the 90th percentile lands. See README.md.
var engineClasses = []class{
	{"theta", 4, 0.25, 6},
	{"theta", 8, 0.25, 6},
	{"appfast", 8, 0.5, 10},
	{"appinc", 8, 0, 10},
	{"appfast", 6, 0.5, 10},
	{"appinc", 6, 0, 10},
	{"appfast", 4, 0.5, 6},
	{"appinc", 4, 0, 6},
	{"appacc", 8, 0.5, 6},
}

const (
	engineWindows   = 4 // windows per round; each is barrier-aligned across clients
	engineMovers    = 8 // check-ins per window (each moved, then moved back)
	engineMoveRange = 0.02
)

// engineOp is one step of a client's sequence.
type engineOp struct {
	query *core.Query
	batch []sacsearch.BatchQuery
	write *Write
}

// pubLog records every publication the engine makes (seq, events, time).
type pubLog struct {
	mu   sync.Mutex
	pubs []publication
	at   map[Write]time.Time
}

type publication struct {
	seq    uint64
	writes []Write
}

func (p *pubLog) hook(sn *snapshot.Snap, evs []snapshot.AppliedEvent) {
	now := time.Now()
	ws := make([]Write, len(evs))
	for i, ev := range evs {
		ws[i] = Write{Checkin: ev.Checkin, V: int32(ev.V), Loc: ev.Loc, U: int32(ev.U), W: int32(ev.W), Insert: ev.Insert}
	}
	p.mu.Lock()
	p.pubs = append(p.pubs, publication{sn.Seq(), ws})
	for _, w := range ws {
		p.at[w] = now
	}
	p.mu.Unlock()
}

func (p *pubLog) publishedAt(w Write) (time.Time, bool) {
	p.mu.Lock()
	defer p.mu.Unlock()
	t, ok := p.at[w]
	return t, ok
}

// engineClient is one closed-loop client's tally for a phase.
type engineClient struct {
	lat        []float64
	batchItems int
	batchTime  time.Duration
	writes     []float64
	writeWait  []float64
	failed     int
	attempted  int
	stats      core.Stats
	searches   int
	answers    answerLog
	errs       []string
}

func runEngine(env *Env) (*Report, error) {
	rep := &Report{E2E: map[string]float64{}, Layer: map[string]float64{}}
	t0 := time.Now()
	d, err := dataset.Load("brightkite", 1)
	if err != nil {
		return nil, err
	}
	g := d.Graph
	rep.Layer["graph.build_s"] = time.Since(t0).Seconds()
	t1 := time.Now()
	kcore.Decompose(g)
	rep.Layer["kcore.decompose_s"] = time.Since(t1).Seconds()

	mirror := NewMirror(g)
	buckets := drawQueries(g, engineClasses, env.Clients, engineWindows, env.Seed)
	// Client 0 carries the check-in stream: at the start of every window
	// the movers go to a nearby point, and half-way through they go back,
	// so every window starts from the base state.
	rnd := rand.New(rand.NewSource(env.Seed))
	var moves, backs []engineOp
	for i := 0; i < engineMovers; i++ {
		b := buckets[0][rnd.Intn(engineWindows)]
		v := int32(b[rnd.Intn(len(b))].Q)
		home := mirror.Loc(v)
		to := geom.Point{X: home.X + (rnd.Float64()*2-1)*engineMoveRange, Y: home.Y + (rnd.Float64()*2-1)*engineMoveRange}
		moves = append(moves, engineOp{write: &Write{Checkin: true, V: v, Loc: to}})
		backs = append(backs, engineOp{write: &Write{Checkin: true, V: v, Loc: home}})
	}
	// plans[c][w] is client c's work in window w: its queries, with one
	// batch of the window's AppFast questions half-way through.
	plans := make([][][]engineOp, env.Clients)
	for c := range plans {
		for _, qs := range buckets[c] {
			var ops []engineOp
			var batch []sacsearch.BatchQuery
			for i := range qs {
				if qs[i].Algo == "appfast" {
					batch = append(batch, sacsearch.BatchQuery{Q: qs[i].Q, K: qs[i].K})
				}
			}
			if c == 0 {
				ops = append(ops, moves...)
			}
			for i := range qs {
				if i == len(qs)/2 {
					ops = append(ops, engineOp{batch: batch})
					if c == 0 {
						ops = append(ops, backs...)
					}
				}
				ops = append(ops, engineOp{query: &qs[i]})
			}
			plans[c] = append(plans[c], ops)
		}
	}

	reg := telemetry.NewRegistry()
	pubs := &pubLog{at: map[Write]time.Time{}}
	eng := sacsearch.NewServingEngine(g, sacsearch.ServingOptions{Metrics: reg, OnPublish: pubs.hook})
	defer eng.Close()
	seq0 := eng.Current().Seq()
	tr := &Tracer{}

	cls := make([]*engineClient, env.Clients)
	for c := range cls {
		cls[c] = &engineClient{}
	}
	// runWindow runs window w on every client at once and returns its
	// window record.
	runWindow := func(w int, record, traced bool) window {
		win := window{traced: traced}
		tr.on.Store(traced)
		type mark struct {
			lat, writes, items int
			bt                 time.Duration
		}
		marks := make([]mark, len(cls))
		for i, c := range cls {
			marks[i] = mark{len(c.lat), len(c.writes), c.batchItems, c.batchTime}
		}
		var wg sync.WaitGroup
		start := time.Now()
		for c := range cls {
			wg.Add(1)
			go func(c int) {
				defer wg.Done()
				engineOps(eng, plans[c][w], cls[c], tr, record, pubs)
			}(c)
		}
		wg.Wait()
		win.read = time.Since(start)
		tr.on.Store(false)
		for i, c := range cls {
			win.addClient(c.lat[marks[i].lat:])
			win.writes = append(win.writes, c.writes[marks[i].writes:]...)
			win.batchItems += c.batchItems - marks[i].items
			win.batchTime += c.batchTime - marks[i].bt
		}
		return win
	}

	// Warm the candidate caches and the searcher pool before timing.
	runWindow(0, false, false)
	for _, c := range cls {
		*c = engineClient{}
	}
	rep.E2E["setup_s"] = time.Since(processStart).Seconds()

	mark := markRuntime()
	var windows []window
	start := time.Now()
	for n := 0; n < engineWindows || time.Since(start).Seconds() < env.Seconds || n%engineWindows != 0; n++ {
		windows = append(windows, runWindow(n%engineWindows, true, env.Trace && n%2 == 1))
	}
	allocBytes, gcFrac := mark.since()
	summarize(rep, windows)
	if env.Trace {
		traceSummary(rep, windows)
		if err := tr.WriteFile(fmt.Sprintf("%s/trace-engine-%d.jsonl", env.Workdir, env.Seed)); err != nil {
			return nil, err
		}
	}

	var lat, waits []float64
	var log answerLog
	var st core.Stats
	searches, batchItems := 0, 0
	for _, c := range cls {
		lat = append(lat, c.lat...)
		waits = append(waits, c.writeWait...)
		rep.Attempted += c.attempted
		rep.Failed += c.failed
		for _, e := range c.errs {
			rep.fail("%s", e)
		}
		for _, t := range c.answers.list {
			log.add(t.tag, t.a, t.batch)
		}
		st.CandidateSize += c.stats.CandidateSize
		st.FeasibilityChecks += c.stats.FeasibilityChecks
		st.BinaryIters += c.stats.BinaryIters
		st.AnchorsProcessed += c.stats.AnchorsProcessed
		st.CacheHits += c.stats.CacheHits
		searches += c.searches
		batchItems += c.batchItems
	}
	singles := float64(len(lat))
	rep.Layer["runtime.alloc_bytes_per_query"] = allocBytes / (singles + float64(batchItems))
	rep.Layer["runtime.gc_cpu_fraction"] = gcFrac
	if searches > 0 {
		f := float64(searches)
		rep.Layer["core.candidates_per_query"] = float64(st.CandidateSize) / f
		rep.Layer["core.feasibility_checks_per_query"] = float64(st.FeasibilityChecks) / f
		rep.Layer["core.binary_iters_per_query"] = float64(st.BinaryIters) / f
		rep.Layer["core.anchors_per_query"] = float64(st.AnchorsProcessed) / f
		rep.Layer["core.cache_hit_ratio"] = float64(st.CacheHits) / f
	}
	rep.Layer["snapshot.write_wait_ms"] = quantile(waits, 0.5)
	rep.Layer["snapshot.pool_clones"] = float64(eng.PoolClones())
	var sb strings.Builder
	reg.WriteText(&sb)
	m := scrape(sb.String())
	rep.Layer["snapshot.publish_ms"] = histMean(m, "sac_engine_publish_duration_seconds") * 1000
	rep.Layer["snapshot.events_per_publish"] = histMean(m, "sac_engine_batch_events")
	if env.Trace {
		spans := tr.Spans()
		for _, a := range []string{"appfast", "appinc", "appacc", "theta"} {
			rep.Layer["core.search_ms."+a] = quantile(spanMs(spans, "core", a), 0.5)
		}
		var batchMs, items float64
		for _, sp := range spans {
			if sp.Layer == "batch" {
				batchMs += ms(sp.Dur())
				items += float64(sp.Items)
			}
		}
		if items > 0 {
			rep.Layer["batch.ms_per_query"] = batchMs / items
		}
	}

	// Replay the publications to know each snapshot's state, then check.
	pubs.mu.Lock()
	history := append([]publication(nil), pubs.pubs...)
	pubs.mu.Unlock()
	chk := NewChecker(mirror)
	next := 0
	compared := checkTagged(rep, chk, log.list, func(tag uint64) error {
		if tag < seq0 {
			return fmt.Errorf("answer from snapshot %d predates the run (first %d)", tag, seq0)
		}
		for next < len(history) && history[next].seq <= tag {
			for _, w := range history[next].writes {
				mirror.Apply(w)
			}
			next++
		}
		return nil
	})
	if compared == 0 {
		rep.fail("no batch answer could be compared with a single answer on the same snapshot")
	}
	if env.Trace {
		mccLayer(rep, log.list, mirror)
	}
	fmt.Fprintf(stderr, "perfbench: engine checked %d distinct answers (%d reused), %d batch≡single comparisons\n",
		chk.Checks, chk.Reused, compared)
	log = answerLog{}
	chk, mirror = nil, nil
	rep.E2E["live_heap_mb"] = liveHeapMiB()
	return rep, nil
}

// engineOps runs one client's share of a window.
func engineOps(eng *sacsearch.ServingEngine, plan []engineOp, st *engineClient, tr *Tracer, record bool, pubs *pubLog) {
	ctx := context.Background()
	traced := tr.Enabled()
	{
		for _, op := range plan {
			st.attempted++
			switch {
			case op.query != nil:
				snap := eng.Current()
				s := snap.Get()
				t := time.Now()
				res, err := s.Search(ctx, *op.query)
				end := time.Now()
				snap.Put(s)
				st.lat = append(st.lat, ms(end.Sub(t)))
				if traced {
					tr.Add(Span{Layer: "core", Name: canonical(op.query.Algo), Start: t, End: end})
				}
				a, err := fromResult(*op.query, res, err)
				if err != nil {
					st.failed++
					st.errs = append(st.errs, err.Error())
					continue
				}
				if res != nil {
					st.searches++
					st.stats.CandidateSize += res.Stats.CandidateSize
					st.stats.FeasibilityChecks += res.Stats.FeasibilityChecks
					st.stats.BinaryIters += res.Stats.BinaryIters
					st.stats.AnchorsProcessed += res.Stats.AnchorsProcessed
					st.stats.CacheHits += res.Stats.CacheHits
				}
				if record {
					st.answers.add(snap.Seq(), a, false)
				}
			case op.batch != nil:
				snap := eng.Current()
				t := time.Now()
				items := sacsearch.BatchSearchOn(snap, op.batch, sacsearch.BatchOptions{
					Workers: 1, Template: core.Query{Algo: "appfast", EpsF: core.Float(0.5)}})
				end := time.Now()
				st.batchItems += len(items)
				st.batchTime += end.Sub(t)
				if traced {
					tr.Add(Span{Layer: "batch", Name: "batch", Start: t, End: end, Items: len(items)})
				}
				for _, it := range items {
					q := core.Query{Algo: "appfast", Q: it.Q, K: it.K, EpsF: core.Float(0.5)}
					a, err := fromResult(q, it.Result, it.Err)
					if err != nil {
						st.failed++
						st.errs = append(st.errs, err.Error())
						continue
					}
					if record {
						st.answers.add(snap.Seq(), a, true)
					}
				}
			case op.write != nil:
				w := *op.write
				t := time.Now()
				err := eng.CheckIn(ctx, graph.V(w.V), w.Loc)
				end := time.Now()
				if err != nil {
					st.failed++
					st.errs = append(st.errs, err.Error())
					continue
				}
				st.writes = append(st.writes, ms(end.Sub(t)))
				if at, ok := pubs.publishedAt(w); ok {
					st.writeWait = append(st.writeWait, ms(end.Sub(at)))
				}
			}
		}
	}
}
