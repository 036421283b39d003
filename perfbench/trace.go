package main

import (
	"bufio"
	"encoding/json"
	"net/http"
	"os"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Span is one timed call at a layer boundary, recorded by the benchmark's
// own wrappers. Spans of one request share Req (the X-Request-Id the
// client sends and the router forwards to every shard leg).
type Span struct {
	Req   string    `json:"req"`
	Layer string    `json:"layer"` // client, server, router, shard, core, batch
	Name  string    `json:"name"`  // query, batch, write, search, expand, ...
	Start time.Time `json:"start"`
	End   time.Time `json:"end"`
	Bytes int64     `json:"bytes,omitempty"` // response bytes written by a handler
	Items int       `json:"items,omitempty"` // queries answered by a batch call
}

// Dur returns the span's length.
func (s Span) Dur() time.Duration { return s.End.Sub(s.Start) }

// Tracer keeps spans in memory while On, and writes them out at the end.
type Tracer struct {
	on    atomic.Bool
	mu    sync.Mutex
	spans []Span
	seq   atomic.Int64
}

// Enabled reports whether spans are being recorded.
func (t *Tracer) Enabled() bool { return t != nil && t.on.Load() }

// Add records s when tracing is on.
func (t *Tracer) Add(s Span) {
	if !t.Enabled() {
		return
	}
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

// NextID returns a fresh request id.
func (t *Tracer) NextID(prefix string) string {
	return prefix + "-" + itoa(t.seq.Add(1))
}

func itoa(n int64) string {
	var b [20]byte
	i := len(b)
	for n >= 10 {
		i--
		b[i] = byte('0' + n%10)
		n /= 10
	}
	i--
	b[i] = byte('0' + n)
	return string(b[i:])
}

// Spans returns the recorded spans.
func (t *Tracer) Spans() []Span {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]Span(nil), t.spans...)
}

// WriteFile writes the spans as JSON lines.
func (t *Tracer) WriteFile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range t.Spans() {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// HandlerCounts counts requests per kind seen by one wrapped handler,
// whether or not tracing is on.
type HandlerCounts struct {
	mu sync.Mutex
	n  map[string]int
}

// Get returns the count for kind.
func (c *HandlerCounts) Get(kind string) int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.n[kind]
}

// kindOf names a request by its route: /v1/shard/search → "search",
// /v1/query → "query", /v1/checkin → "checkin", /v1/vertex/7 → "vertex".
func kindOf(path string) string {
	p := strings.TrimPrefix(path, "/v1/")
	p = strings.TrimPrefix(p, "shard/")
	if i := strings.IndexByte(p, '/'); i >= 0 {
		p = p[:i]
	}
	return p
}

// Wrap returns a handler that counts requests by kind (when counts is not
// nil) and, while tracing, records one span per request under layer.
// Streaming routes (subscriptions, shard watch) pass through untouched.
func (t *Tracer) Wrap(layer string, counts *HandlerCounts, h http.Handler) http.Handler {
	if counts != nil {
		counts.n = map[string]int{}
	}
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		kind := kindOf(r.URL.Path)
		if counts != nil {
			counts.mu.Lock()
			counts.n[kind]++
			counts.mu.Unlock()
		}
		if !t.Enabled() || kind == "subscribe" || kind == "watch" {
			h.ServeHTTP(w, r)
			return
		}
		cw := &countingWriter{ResponseWriter: w}
		start := time.Now()
		h.ServeHTTP(cw, r)
		t.Add(Span{Req: r.Header.Get("X-Request-Id"), Layer: layer, Name: kind,
			Start: start, End: time.Now(), Bytes: cw.n})
	})
}

type countingWriter struct {
	http.ResponseWriter
	n int64
}

func (w *countingWriter) Write(b []byte) (int, error) {
	n, err := w.ResponseWriter.Write(b)
	w.n += int64(n)
	return n, err
}

func (w *countingWriter) Unwrap() http.ResponseWriter { return w.ResponseWriter }

// covered returns how much of [s.Start, s.End] the children cover (the
// union of their intervals clipped to s).
func covered(s Span, children []Span) time.Duration {
	type iv struct{ a, b time.Time }
	var ivs []iv
	for _, c := range children {
		a, b := c.Start, c.End
		if a.Before(s.Start) {
			a = s.Start
		}
		if b.After(s.End) {
			b = s.End
		}
		if b.After(a) {
			ivs = append(ivs, iv{a, b})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].a.Before(ivs[j].a) })
	var total time.Duration
	var cur iv
	for i, x := range ivs {
		if i == 0 || x.a.After(cur.b) {
			if i > 0 {
				total += cur.b.Sub(cur.a)
			}
			cur = x
			continue
		}
		if x.b.After(cur.b) {
			cur.b = x.b
		}
	}
	if len(ivs) > 0 {
		total += cur.b.Sub(cur.a)
	}
	return total
}

// byReq groups spans by request id, then by layer.
func byReq(spans []Span) map[string]map[string][]Span {
	out := map[string]map[string][]Span{}
	for _, s := range spans {
		if s.Req == "" {
			continue
		}
		m := out[s.Req]
		if m == nil {
			m = map[string][]Span{}
			out[s.Req] = m
		}
		m[s.Layer] = append(m[s.Layer], s)
	}
	return out
}

// spanMs returns the durations in ms of spans matching layer and name.
func spanMs(spans []Span, layer, name string) []float64 {
	var out []float64
	for _, s := range spans {
		if s.Layer == layer && (name == "" || s.Name == name) {
			out = append(out, ms(s.Dur()))
		}
	}
	return out
}

// layerMetrics are the per-layer metrics every traced run prints. A layer
// the workload bypasses reads 0.
var layerMetrics = []struct{ name, unit string }{
	{"core.search_ms.appfast", "ms"},
	{"core.search_ms.appinc", "ms"},
	{"core.search_ms.appacc", "ms"},
	{"core.search_ms.theta", "ms"},
	{"core.candidates_per_query", "count"},
	{"core.feasibility_checks_per_query", "count"},
	{"core.binary_iters_per_query", "count"},
	{"core.anchors_per_query", "count"},
	{"core.cache_hit_ratio", "ratio"},
	{"batch.ms_per_query", "ms"},
	{"geom.mcc_us", "us"},
	{"geom.mcc_points", "count"},
	{"graph.build_s", "s"},
	{"kcore.decompose_s", "s"},
	{"snapshot.publish_ms", "ms"},
	{"snapshot.events_per_publish", "count"},
	{"snapshot.write_wait_ms", "ms"},
	{"snapshot.pool_clones", "count"},
	{"store.open_s", "s"},
	{"wal.bytes_per_write", "bytes"},
	{"wal.fsyncs_per_s", "1/s"},
	{"wal.fsync_ms", "ms"},
	{"server.handler_ms.query", "ms"},
	{"server.search_ms", "ms"},
	{"server.codec_ms", "ms"},
	{"server.response_bytes.query", "bytes"},
	{"server.handler_ms.batch", "ms"},
	{"server.handler_ms.write", "ms"},
	{"client.overhead_ms", "ms"},
	{"router.handler_ms.query", "ms"},
	{"router.self_ms", "ms"},
	{"router.legs_per_query", "count"},
	{"router.path_share.certified", "ratio"},
	{"router.path_share.assembled", "ratio"},
	{"router.expand_rounds_per_assembled", "count"},
	{"shard.leg_ms.search", "ms"},
	{"shard.leg_ms.expand", "ms"},
	{"shard.leg_bytes.search", "bytes"},
	{"shard.leg_bytes.expand", "bytes"},
	{"subscribe.push_ms", "ms"},
	{"subscribe.gate_skip_ratio", "ratio"},
	{"subscribe.evaluations_per_write", "count"},
	{"runtime.alloc_bytes_per_query", "bytes"},
	{"runtime.gc_cpu_fraction", "ratio"},
	{"traced.queries_per_s", "1/s"},
	{"traced.overhead_pct", "%"},
}
