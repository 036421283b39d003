package main

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"sacsearch/client"
	"sacsearch/internal/core"
	"sacsearch/internal/dataset"
	"sacsearch/internal/geom"
	"sacsearch/internal/graph"
)

// subEvent is a standing-query event as the typed client delivers it.
type subEvent = client.SubEvent

// class is one stratum of a query mix: an algorithm at one k, with a fixed
// number of queries per client sequence. Fixed counts keep each class's
// share of the latency distribution identical from seed to seed, so the
// percentiles land in the same class every run.
type class struct {
	algo  string
	k     int
	param float64 // epsF, epsA or theta
	count int
}

// query builds the core request for vertex q.
func (c class) query(q graph.V) core.Query {
	cq := core.Query{Algo: c.algo, Q: q, K: c.k}
	switch c.algo {
	case "appfast":
		cq.EpsF = core.Float(c.param)
	case "appacc":
		cq.EpsA = core.Float(c.param)
	case "theta":
		cq.Theta = core.Float(c.param)
	}
	return cq
}

// toClient converts a core request to the typed client's shape.
func toClient(q core.Query) client.Query {
	return client.Query{Q: int64(q.Q), K: q.K, Algo: q.Algo, EpsF: q.EpsF, EpsA: q.EpsA, Theta: q.Theta}
}

// paramOf returns the query's algorithm parameter (0 when it has none).
func paramOf(q core.Query) float64 {
	for _, p := range []*float64{q.EpsF, q.EpsA, q.Theta} {
		if p != nil {
			return *p
		}
	}
	return 0
}

// drawQueries returns, for every client and window, count query vertices
// per class, drawn with the paper's protocol (uniformly among vertices of
// core number ≥ k). Every (client, window) bucket holds exactly the same
// number of queries of each class, so windows are comparable with each
// other and the class shares do not move with the seed. Each bucket is
// shuffled, so the classes interleave.
func drawQueries(g *graph.Graph, classes []class, clients, windows int, seed int64) [][][]core.Query {
	out := make([][][]core.Query, clients)
	for c := range out {
		out[c] = make([][]core.Query, windows)
	}
	for ci, cl := range classes {
		vs := dataset.QueryWorkload(g, cl.k, cl.count*clients*windows, seed*7919+int64(ci))
		rand.New(rand.NewSource(seed*131+int64(ci))).Shuffle(len(vs), func(a, b int) { vs[a], vs[b] = vs[b], vs[a] })
		for i, v := range vs {
			c, w := i%clients, (i/clients)%windows
			out[c][w] = append(out[c][w], cl.query(v))
		}
	}
	for c := range out {
		for w, b := range out[c] {
			rnd := rand.New(rand.NewSource(seed*31 + int64(c*windows+w)))
			rnd.Shuffle(len(b), func(x, y int) { b[x], b[y] = b[y], b[x] })
		}
	}
	return out
}

// window is one barrier-aligned slice of a measured phase: a round of a
// phased workload, or one sub-round of every engine client. End-to-end
// metrics are medians over untraced windows, so a burst of interference
// from outside the process moves a few windows, not the result.
type window struct {
	lat []float64 // single-query latencies, ms
	// qps is the closed-loop single-query throughput: the sum over clients
	// of queries / time spent in single-query calls, so barrier idle time
	// and batch or write calls do not count against it.
	qps        float64
	read       time.Duration
	batchItems int
	batchTime  time.Duration
	writes     []float64 // write acknowledgement latencies, ms
	traced     bool
}

// addClient adds one client's single-query latencies (ms) to the window.
func (w *window) addClient(lat []float64) {
	w.lat = append(w.lat, lat...)
	sum := 0.0
	for _, x := range lat {
		sum += x
	}
	if sum > 0 {
		w.qps += float64(len(lat)) / (sum / 1000)
	}
}

// summarize fills the end-to-end metrics from the untraced windows.
func summarize(rep *Report, ws []window) {
	var qps, p50, p90, w50 []float64
	var items, batchSec float64
	for _, w := range ws {
		if w.traced {
			continue
		}
		qps = append(qps, w.qps)
		lat := append([]float64(nil), w.lat...)
		p50 = append(p50, quantile(lat, 0.5))
		p90 = append(p90, quantile(lat, 0.9))
		items += float64(w.batchItems)
		batchSec += w.batchTime.Seconds()
		if len(w.writes) > 0 {
			w50 = append(w50, quantile(append([]float64(nil), w.writes...), 0.5))
		}
	}
	rep.E2E["queries_per_s"] = quantile(qps, 0.5)
	rep.E2E["query_p50_ms"] = quantile(p50, 0.5)
	rep.E2E["query_p90_ms"] = quantile(p90, 0.5)
	// Batch throughput is pooled over the run: batches are few per window
	// and their items differ from window to window.
	rep.E2E["batch_queries_per_s"] = items / batchSec
	rep.E2E["write_p50_ms"] = quantile(w50, 0.5)
}

// fromResult converts an in-process answer.
func fromResult(q core.Query, res *core.Result, err error) (*Answer, error) {
	a := &Answer{Algo: canonical(q.Algo), Q: int32(q.Q), K: q.K, Param: paramOf(q)}
	if err != nil {
		if errors.Is(err, core.ErrNoCommunity) {
			a.NoCommunity = true
			return a, nil
		}
		return nil, err
	}
	a.Members = make([]int32, len(res.Members))
	for i, v := range res.Members {
		a.Members[i] = int32(v)
	}
	a.MCC = res.MCC
	a.Delta, a.HasDelta = res.Delta, true
	return a, nil
}

// fromClient converts an answer received over HTTP.
func fromClient(q core.Query, res *client.Result, err error) (*Answer, error) {
	a := &Answer{Algo: canonical(q.Algo), Q: int32(q.Q), K: q.K, Param: paramOf(q)}
	if err != nil {
		if errors.Is(err, client.ErrNoCommunity) {
			a.NoCommunity = true
			return a, nil
		}
		return nil, err
	}
	a.Members = toInt32(res.Members)
	a.MCC = geom.Circle{C: geom.Point{X: res.MCC.X, Y: res.MCC.Y}, R: res.MCC.R}
	a.Delta, a.HasDelta = res.Delta, true
	return a, nil
}

// fromBatchItem converts one /v1/batch item (no delta on the wire).
func fromBatchItem(q core.Query, it client.BatchItem) (*Answer, error) {
	a := &Answer{Algo: canonical(q.Algo), Q: int32(q.Q), K: q.K, Param: paramOf(q)}
	if it.Error != "" {
		if strings.Contains(it.Error, core.ErrNoCommunity.Error()) {
			a.NoCommunity = true
			return a, nil
		}
		return nil, errors.New(it.Error)
	}
	a.Members = toInt32(it.Members)
	a.MCC = geom.Circle{C: geom.Point{X: it.MCC.X, Y: it.MCC.Y}, R: it.MCC.R}
	return a, nil
}

func toInt32(vs []int64) []int32 {
	out := make([]int32, len(vs))
	for i, v := range vs {
		out[i] = int32(v)
	}
	return out
}

func canonical(algo string) string {
	if spec, ok := core.LookupAlgo(algo); ok {
		return spec.Name
	}
	return algo
}

// tagged is an answer with the state it was computed on: a snapshot seq
// (engine) or the number of write bursts acknowledged before it (phased
// workloads).
type tagged struct {
	tag   uint64
	a     *Answer
	batch bool
}

// answerLog keeps each distinct (state, question, answer) once, so the
// checker does not retain a copy of every repeated answer.
type answerLog struct {
	seen map[string]bool
	list []tagged
}

func (l *answerLog) add(tag uint64, a *Answer, batch bool) {
	if l.seen == nil {
		l.seen = map[string]bool{}
	}
	key := strconv.FormatUint(tag, 10) + "/" + a.QueryKey() + "/" + strconv.FormatUint(a.Hash(), 16)
	if batch {
		key += "/b"
	}
	if l.seen[key] {
		return
	}
	l.seen[key] = true
	l.list = append(l.list, tagged{tag, a, batch})
}

// sameAnswer compares a batch answer with a single one: members and MCC
// byte-equal (delta is absent from HTTP batch items).
func sameAnswer(a, b *Answer) bool {
	if a.NoCommunity != b.NoCommunity || a.MCC != b.MCC || len(a.Members) != len(b.Members) {
		return false
	}
	for i := range a.Members {
		if a.Members[i] != b.Members[i] {
			return false
		}
	}
	return true
}

// checkTagged verifies every logged answer. states(tag) must move the
// checker's mirror to the state the tag names; the answers are visited in
// tag order, so a forward-replaying states function suffices. Batch
// answers are also compared with the single answer to the same question on
// the same state when the run produced one.
func checkTagged(rep *Report, chk *Checker, list []tagged, states func(tag uint64) error) (batchCompared int) {
	sort.SliceStable(list, func(i, j int) bool { return list[i].tag < list[j].tag })
	var singles map[string]*Answer
	for i, t := range list {
		if i == 0 || t.tag != list[i-1].tag {
			if err := states(t.tag); err != nil {
				rep.fail("replaying state %d: %v", t.tag, err)
				return
			}
			singles = map[string]*Answer{}
			for _, u := range list[i:] {
				if u.tag != t.tag {
					break
				}
				if !u.batch {
					singles[u.a.QueryKey()] = u.a
				}
			}
		}
		if err := chk.Check(t.a); err != nil {
			rep.fail("answer on state %d: %v", t.tag, err)
			continue
		}
		if t.batch {
			if s, ok := singles[t.a.QueryKey()]; ok {
				batchCompared++
				if !sameAnswer(s, t.a) {
					rep.fail("batch answer differs from single answer: %s on state %d", t.a.QueryKey(), t.tag)
				}
			}
		}
	}
	return batchCompared
}

// scrape parses Prometheus text into "name{labels}" → value.
func scrape(text string) map[string]float64 {
	out := map[string]float64{}
	sc := bufio.NewScanner(strings.NewReader(text))
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || line[0] == '#' {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			continue
		}
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			continue
		}
		out[line[:i]] = v
	}
	return out
}

// histMean returns sum/count of a scraped histogram (0 when empty).
func histMean(m map[string]float64, name string) float64 {
	if c := m[name+"_count"]; c > 0 {
		return m[name+"_sum"] / c
	}
	return 0
}

// runtimeMark samples allocation counters around a measured phase.
type runtimeMark struct{ alloc uint64 }

func markRuntime() runtimeMark {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return runtimeMark{ms.TotalAlloc}
}

// since returns bytes allocated since the mark and the process's GC CPU
// fraction.
func (m runtimeMark) since() (allocBytes float64, gcFrac float64) {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.TotalAlloc - m.alloc), ms.GCCPUFraction
}

// stderr receives progress notes; stdout carries only the result line.
var stderr = os.Stderr

// mccLayer re-times geom.MCC on the members of each distinct answer: an
// upper bound on what a faster MCC could save per query.
func mccLayer(rep *Report, list []tagged, m *Mirror) {
	var us, pts []float64
	for _, t := range list {
		if t.a.NoCommunity || len(t.a.Members) == 0 {
			continue
		}
		p := make([]geom.Point, len(t.a.Members))
		for i, v := range t.a.Members {
			p[i] = m.Loc(v)
		}
		start := time.Now()
		geom.MCC(p)
		us = append(us, float64(time.Since(start))/float64(time.Microsecond))
		pts = append(pts, float64(len(p)))
	}
	rep.Layer["geom.mcc_us"] = quantile(us, 0.5)
	rep.Layer["geom.mcc_points"] = mean(pts)
}

// warmRounds is how many untimed rounds a phased workload runs before
// timing starts: enough that set-up repeats within a tenth rather than
// hanging on one cold round.
const warmRounds = 4

// phasedPlan is the fixed traffic of a phased workload: in every round,
// for each burst b, the writes of sets[b] spread over the clients, then
// each client's read chunk b. Read chunk b therefore always sees the same
// state.
type phasedPlan struct {
	ctx     context.Context
	cl      *client.Client
	tr      *Tracer
	sets    [][]Write
	chunks  [][][]core.Query // [client][burst]
	batchN  int              // items of the one batch call per read burst
	history []Write          // acknowledged writes, burst by burst
	bursts  uint64           // write bursts acknowledged so far
}

func newTallies(n int) []*phaseTally {
	ts := make([]*phaseTally, n)
	for i := range ts {
		ts[i] = &phaseTally{searchUs: map[string]float64{}}
	}
	return ts
}

// round runs every burst once. Answers are tagged with the number of write
// bursts acknowledged before them.
func (p *phasedPlan) round(tallies []*phaseTally, readTime *time.Duration, record bool) {
	for b, set := range p.sets {
		var wg sync.WaitGroup
		for c := range tallies {
			wg.Add(1)
			go func(c int) {
				defer wg.Done()
				for i := c; i < len(set); i += len(tallies) {
					churnWrite(p.ctx, p.cl, p.tr, set[i], tallies[c])
				}
			}(c)
		}
		wg.Wait()
		p.history = append(p.history, set...)
		p.bursts++
		tag := p.bursts
		start := time.Now()
		for c := range tallies {
			wg.Add(1)
			go func(c int) {
				defer wg.Done()
				churnRead(p.ctx, p.cl, p.tr, p.chunks[c][b], p.batchN, tallies[c], tag, record)
			}(c)
		}
		wg.Wait()
		*readTime += time.Since(start)
	}
}

// warmUp runs the untimed rounds.
func (p *phasedPlan) warmUp(clients int) {
	warm := newTallies(clients)
	var read time.Duration
	for r := 0; r < warmRounds; r++ {
		p.round(warm, &read, false)
	}
}

// replayTo applies acknowledged writes to m up to the state tagged tag;
// applied counts the writes already applied.
func (p *phasedPlan) replayTo(m *Mirror, applied *int, tag uint64) error {
	want := 0
	for b := uint64(0); b < tag; b++ {
		want += len(p.sets[b%uint64(len(p.sets))])
	}
	for ; *applied < want && *applied < len(p.history); *applied++ {
		m.Apply(p.history[*applied])
	}
	if *applied != want {
		return fmt.Errorf("history ends at %d writes, state needs %d", *applied, want)
	}
	return nil
}

// phased is one measured phase of a phased workload (serve-churn, routed).
type phased struct {
	tallies []*phaseTally
	windows []window
	wall    time.Duration
	// before and after are the daemon's /metrics scrapes around the phase.
	before, after map[string]float64
}

// measurePhased runs whole rounds for at least env.Seconds (two rounds at
// least when tracing), one window per round. In a traced run, rounds
// alternate untraced and traced, so both halves see the same state
// sequence and the difference is the tracing overhead.
func measurePhased(env *Env, plan *phasedPlan, url string) (*phased, error) {
	tr := plan.tr
	p := &phased{tallies: newTallies(env.Clients)}
	var err error
	if p.before, err = scrapeURL(url); err != nil {
		return nil, err
	}
	start := time.Now()
	for r := 0; r < 2 || time.Since(start).Seconds() < env.Seconds; r++ {
		w := window{traced: env.Trace && r%2 == 1}
		tr.on.Store(w.traced)
		type mark struct {
			lat, writes, items int
			bt                 time.Duration
		}
		marks := make([]mark, len(p.tallies))
		for i, t := range p.tallies {
			marks[i] = mark{len(t.lat), len(t.writes), t.batchItems, t.batchTime}
		}
		plan.round(p.tallies, &w.read, true)
		for i, t := range p.tallies {
			w.addClient(t.lat[marks[i].lat:])
			w.writes = append(w.writes, t.writes[marks[i].writes:]...)
			w.batchItems += t.batchItems - marks[i].items
			w.batchTime += t.batchTime - marks[i].bt
		}
		p.windows = append(p.windows, w)
	}
	tr.on.Store(false)
	p.wall = time.Since(start)
	p.after, err = scrapeURL(url)
	return p, err
}

// traceSummary records the traced windows' own single-query throughput
// and the tracing overhead against the untraced windows of the same run.
func traceSummary(rep *Report, ws []window) {
	var q [2][]float64
	for _, w := range ws {
		m := 0
		if w.traced {
			m = 1
		}
		q[m] = append(q[m], w.qps)
	}
	untraced, traced := quantile(q[0], 0.5), quantile(q[1], 0.5)
	rep.Layer["traced.queries_per_s"] = traced
	rep.Layer["traced.overhead_pct"] = (untraced/traced - 1) * 100
}
