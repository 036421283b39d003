package main

import (
	"fmt"
	"math"
	"sort"
	"strconv"
	"strings"

	"sacsearch/internal/core"
	"sacsearch/internal/geom"
	"sacsearch/internal/graph"
)

// Mirror is the benchmark's own copy of a spatial graph: adjacency sets and
// locations, mutated by the same writes the program acknowledges. The
// checker reads only the mirror, never the program's graph, searcher or
// k-core code, so a fault in those cannot hide itself.
type Mirror struct {
	adj [][]int32
	loc []geom.Point
	// fp is a Zobrist-style fingerprint of the state: the XOR of one hash
	// per (vertex, location) and one per present edge. Equal states have
	// equal fingerprints whatever order the writes came in.
	fp uint64
}

// NewMirror copies g.
func NewMirror(g *graph.Graph) *Mirror {
	n := g.NumVertices()
	m := &Mirror{adj: make([][]int32, n), loc: make([]geom.Point, n)}
	for v := 0; v < n; v++ {
		nb := g.Neighbors(graph.V(v))
		m.adj[v] = make([]int32, len(nb))
		for i, u := range nb {
			m.adj[v][i] = int32(u)
			if int32(v) < int32(u) {
				m.fp ^= edgeHash(int32(v), int32(u))
			}
		}
		m.loc[v] = g.Loc(graph.V(v))
		m.fp ^= locHash(int32(v), m.loc[v])
	}
	return m
}

func mix64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

func locHash(v int32, p geom.Point) uint64 {
	return mix64(uint64(v)*0x9e3779b97f4a7c15 ^ mix64(math.Float64bits(p.X)) ^ mix64(math.Float64bits(p.Y)+1))
}

func edgeHash(u, v int32) uint64 {
	if u > v {
		u, v = v, u
	}
	return mix64(uint64(u)<<32|uint64(uint32(v))) ^ 0x5bd1e995
}

// N returns the vertex count.
func (m *Mirror) N() int { return len(m.loc) }

// Fingerprint identifies the current state.
func (m *Mirror) Fingerprint() uint64 { return m.fp }

// Loc returns v's location.
func (m *Mirror) Loc(v int32) geom.Point { return m.loc[v] }

// HasEdge reports whether {u, v} is present.
func (m *Mirror) HasEdge(u, v int32) bool {
	for _, w := range m.adj[u] {
		if w == v {
			return true
		}
	}
	return false
}

func without(list []int32, v int32) []int32 {
	for i, w := range list {
		if w == v {
			list[i] = list[len(list)-1]
			return list[:len(list)-1]
		}
	}
	return list
}

// Apply replays one acknowledged write.
func (m *Mirror) Apply(w Write) {
	if w.Checkin {
		m.fp ^= locHash(w.V, m.loc[w.V])
		m.loc[w.V] = w.Loc
		m.fp ^= locHash(w.V, w.Loc)
		return
	}
	if w.Insert == m.HasEdge(w.U, w.W) {
		return // a no-op write leaves the state alone
	}
	m.fp ^= edgeHash(w.U, w.W)
	if w.Insert {
		m.adj[w.U] = append(m.adj[w.U], w.W)
		m.adj[w.W] = append(m.adj[w.W], w.U)
	} else {
		m.adj[w.U] = without(m.adj[w.U], w.W)
		m.adj[w.W] = without(m.adj[w.W], w.U)
	}
}

// Write is one state-changing request: a check-in (V moves to Loc) or an
// edge insert/delete of {U, W}.
type Write struct {
	Checkin bool
	V       int32
	Loc     geom.Point
	U, W    int32
	Insert  bool
}

// Inverse returns the write that undoes w, given the mirror state before w.
func (m *Mirror) Inverse(w Write) Write {
	if w.Checkin {
		return Write{Checkin: true, V: w.V, Loc: m.loc[w.V]}
	}
	return Write{U: w.U, W: w.W, Insert: !w.Insert}
}

// peel returns the k-core of the subgraph induced by list, as flags over
// all vertices. It is the textbook queue peel: repeatedly drop a vertex
// whose degree inside the surviving set is below k.
func (m *Mirror) peel(list []int32, k int) []bool {
	alive := make([]bool, m.N())
	for _, v := range list {
		alive[v] = true
	}
	deg := make([]int32, m.N())
	var queue []int32
	for _, v := range list {
		d := 0
		for _, u := range m.adj[v] {
			if alive[u] {
				d++
			}
		}
		deg[v] = int32(d)
		if d < k {
			queue = append(queue, v)
		}
	}
	for len(queue) > 0 {
		v := queue[len(queue)-1]
		queue = queue[:len(queue)-1]
		if !alive[v] {
			continue
		}
		alive[v] = false
		for _, u := range m.adj[v] {
			if alive[u] {
				deg[u]--
				if int(deg[u]) == k-1 {
					queue = append(queue, u)
				}
			}
		}
	}
	return alive
}

// component returns the vertices of set connected to q inside set.
func (m *Mirror) component(set []bool, q int32) []int32 {
	seen := make([]bool, m.N())
	seen[q] = true
	comp := []int32{q}
	for i := 0; i < len(comp); i++ {
		for _, u := range m.adj[comp[i]] {
			if set[u] && !seen[u] {
				seen[u] = true
				comp = append(comp, u)
			}
		}
	}
	return comp
}

// within returns the vertices at distance ≤ r from q's location.
func (m *Mirror) within(q int32, r float64) []int32 {
	c := m.loc[q]
	var out []int32
	for v, p := range m.loc {
		if c.Dist(p) <= r {
			out = append(out, int32(v))
		}
	}
	return out
}

// Answer is one SAC answer as the caller saw it, in any layer's shape.
type Answer struct {
	Algo  string // canonical registry name
	Q     int32
	K     int
	Param float64 // epsF, epsA or theta; 0 when the algorithm has none
	// NoCommunity marks a "no feasible community" answer.
	NoCommunity bool
	Members     []int32 // ascending
	MCC         geom.Circle
	Delta       float64
	HasDelta    bool // batch answers over HTTP carry no delta
}

// QueryKey identifies the question an answer answers.
func (a *Answer) QueryKey() string {
	return a.Algo + "/" + strconv.Itoa(int(a.Q)) + "/" + strconv.Itoa(a.K) + "/" + strconv.FormatFloat(a.Param, 'g', -1, 64)
}

// Hash fingerprints the answer's content: members, MCC and, when present,
// delta.
func (a *Answer) Hash() uint64 {
	h := mix64(math.Float64bits(a.MCC.C.X)) ^ mix64(math.Float64bits(a.MCC.C.Y)+1) ^ mix64(math.Float64bits(a.MCC.R)+2)
	if a.NoCommunity {
		h = mix64(h + 3)
	}
	if a.HasDelta {
		h = mix64(h ^ math.Float64bits(a.Delta))
	}
	for _, v := range a.Members {
		h = mix64(h ^ uint64(uint32(v)))
	}
	return h
}

// Checker verifies answers against a Mirror's current state by the paper's
// definition of a SAC. Memos are keyed by the mirror fingerprint, so the
// caller may move the mirror between states freely.
type Checker struct {
	M       *Mirror
	dstar   map[string]float64
	kcore   map[string][]bool
	checked map[string]bool
	// Checks counts answers verified from scratch; Reused counts answers
	// identical to one already verified on the same state.
	Checks, Reused int
}

// NewChecker wraps m.
func NewChecker(m *Mirror) *Checker {
	return &Checker{M: m, dstar: map[string]float64{}, kcore: map[string][]bool{}, checked: map[string]bool{}}
}

// relTol is the slack for comparing radii computed by different code paths
// (the same bound the router's differential suite uses for delta).
const relTol = 1e-12

func closeRel(a, b float64) bool {
	return a == b || math.Abs(a-b) <= relTol*math.Max(math.Abs(a), math.Abs(b))
}

// Check verifies a against the mirror's current state.
func (c *Checker) Check(a *Answer) error {
	key := fmt.Sprintf("%x/%s/%x", c.M.fp, a.QueryKey(), a.Hash())
	if c.checked[key] {
		c.Reused++
		return nil
	}
	if err := c.check(a); err != nil {
		return fmt.Errorf("%s q=%d k=%d: %w", a.Algo, a.Q, a.K, err)
	}
	c.checked[key] = true
	c.Checks++
	return nil
}

func (c *Checker) check(a *Answer) error {
	m := c.M
	if a.Q < 0 || int(a.Q) >= m.N() {
		return fmt.Errorf("query vertex out of range")
	}
	if a.Algo == "theta" {
		return c.checkTheta(a)
	}
	if a.NoCommunity {
		if c.coreOf(a.K)[a.Q] {
			return fmt.Errorf("no community reported, but q lies in the %d-core", a.K)
		}
		return nil
	}
	if err := c.checkStructure(a); err != nil {
		return err
	}
	if err := checkMCC(m, a.Members, a.MCC); err != nil {
		return err
	}
	ds, err := c.deltaStar(a)
	if err != nil {
		return err
	}
	if a.HasDelta {
		if a.Algo == "appinc" && !closeRel(a.Delta, ds) {
			return fmt.Errorf("appinc delta %v, independent delta* %v", a.Delta, ds)
		}
		if a.Delta < ds*(1-relTol) {
			return fmt.Errorf("delta %v below delta* %v", a.Delta, ds)
		}
	}
	return checkRadius(a, ds)
}

// checkRadius checks the approximation guarantee: the MCC radius lies in
// [δ*/2, ratio·δ*], where ratio is the registry's ratio at the answer's
// parameter (the optimum r* satisfies δ*/2 ≤ r* ≤ δ*).
func checkRadius(a *Answer, ds float64) error {
	ratio, err := ratioOf(a.Algo, a.Param)
	if err != nil {
		return err
	}
	if r := a.MCC.R; r < ds/2*(1-1e-9) || r > ratio*ds*(1+1e-9) {
		return fmt.Errorf("MCC radius %v outside [delta*/2, %v*delta*] with delta* %v", r, ratio, ds)
	}
	return nil
}

// checkStructure: q ∈ members, members distinct and ascending, every member
// has ≥ k neighbours among the members, and the members are connected.
func (c *Checker) checkStructure(a *Answer) error {
	m := c.M
	set := make([]bool, m.N())
	for i, v := range a.Members {
		if v < 0 || int(v) >= m.N() {
			return fmt.Errorf("member %d out of range", v)
		}
		if i > 0 && a.Members[i-1] >= v {
			return fmt.Errorf("members not strictly ascending at %d", i)
		}
		set[v] = true
	}
	if !set[a.Q] {
		return fmt.Errorf("q is not a member")
	}
	for _, v := range a.Members {
		d := 0
		for _, u := range m.adj[v] {
			if set[u] {
				d++
			}
		}
		if d < a.K {
			return fmt.Errorf("member %d has induced degree %d < k", v, d)
		}
	}
	if len(m.component(set, a.Q)) != len(a.Members) {
		return fmt.Errorf("members are not connected")
	}
	return nil
}

// checkMCC verifies that every member lies inside circle and that circle is
// the minimum covering circle of the members. A covering circle is minimal
// exactly when its boundary points are not confined to an open half-circle,
// i.e. no angular gap between consecutive boundary points, seen from the
// centre, exceeds π. The test never calls geom.MCC.
func checkMCC(m *Mirror, members []int32, circle geom.Circle) error {
	r := circle.R
	if !(r >= 0) || math.IsInf(r, 0) {
		return fmt.Errorf("MCC radius %v", r)
	}
	slack := 1e-9*r + 1e-12
	var angles []float64
	for _, v := range members {
		p := m.loc[v]
		d := circle.C.Dist(p)
		if d > r+slack {
			return fmt.Errorf("member %d at %v lies outside the MCC (r=%v)", v, d, r)
		}
		if d >= r-slack && d > 0 {
			angles = append(angles, math.Atan2(p.Y-circle.C.Y, p.X-circle.C.X))
		}
	}
	if r <= slack {
		return nil // every member sits on the centre
	}
	if len(angles) < 2 {
		return fmt.Errorf("MCC is not minimal: %d boundary points", len(angles))
	}
	sort.Float64s(angles)
	gap := angles[0] + 2*math.Pi - angles[len(angles)-1]
	for i := 1; i < len(angles); i++ {
		gap = math.Max(gap, angles[i]-angles[i-1])
	}
	if gap > math.Pi+1e-6 {
		return fmt.Errorf("MCC is not minimal: boundary points leave an angular gap of %.6f rad", gap)
	}
	return nil
}

// coreOf returns the k-core of the whole mirror (memoised per state).
func (c *Checker) coreOf(k int) []bool {
	key := fmt.Sprintf("%x/%d", c.M.fp, k)
	if s, ok := c.kcore[key]; ok {
		return s
	}
	all := make([]int32, c.M.N())
	for v := range all {
		all[v] = int32(v)
	}
	s := c.M.peel(all, k)
	c.kcore[key] = s
	return s
}

// checkTheta: θ-SAC's answer is the connected k-core containing q inside
// the disk of radius θ around q, or no community when there is none.
func (c *Checker) checkTheta(a *Answer) error {
	kc := c.M.peel(c.M.within(a.Q, a.Param), a.K)
	if !kc[a.Q] {
		if a.NoCommunity {
			return nil
		}
		return fmt.Errorf("theta answer has %d members, independent peel finds none", len(a.Members))
	}
	if a.NoCommunity {
		return fmt.Errorf("theta reported no community, independent peel finds one")
	}
	want := c.M.component(kc, a.Q)
	if len(want) != len(a.Members) {
		return fmt.Errorf("theta answer has %d members, independent peel %d", len(a.Members), len(want))
	}
	in := make([]bool, c.M.N())
	for _, v := range want {
		in[v] = true
	}
	for _, v := range a.Members {
		if v < 0 || int(v) >= len(in) || !in[v] {
			return fmt.Errorf("theta member %d not in the independent answer", v)
		}
	}
	return checkMCC(c.M, a.Members, a.MCC)
}

// deltaStar is δ*: the smallest q-centred radius whose disk holds a
// connected k-core containing q. It starts from the disk through the
// answer's farthest member (feasible, because the answer is a connected
// k-core) and deletes vertices from the outside in, cascading the peel;
// the radius at which q falls out is δ*. One peel in total, whatever the
// radius.
func (c *Checker) deltaStar(a *Answer) (float64, error) {
	m := c.M
	key := fmt.Sprintf("%x/%d/%d", m.fp, a.Q, a.K)
	qp := m.loc[a.Q]
	hi := 0.0
	for _, v := range a.Members {
		hi = math.Max(hi, qp.Dist(m.loc[v]))
	}
	if ds, ok := c.dstar[key]; ok && ds <= hi {
		return ds, nil
	}
	alive := m.peel(m.within(a.Q, hi), a.K)
	if !alive[a.Q] {
		return 0, fmt.Errorf("independent peel finds q infeasible at its own answer's radius")
	}
	type far struct {
		v int32
		d float64
	}
	var order []far
	deg := make([]int32, m.N())
	for v, ok := range alive {
		if !ok {
			continue
		}
		order = append(order, far{int32(v), qp.Dist(m.loc[v])})
		for _, u := range m.adj[v] {
			if alive[u] {
				deg[v]++
			}
		}
	}
	sort.Slice(order, func(i, j int) bool { return order[i].d > order[j].d })
	var stack []int32
	kill := func(v int32) {
		alive[v] = false
		stack = append(stack[:0], v)
		for len(stack) > 0 {
			x := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			for _, u := range m.adj[x] {
				if alive[u] {
					deg[u]--
					if int(deg[u]) < a.K {
						alive[u] = false
						stack = append(stack, u)
					}
				}
			}
		}
	}
	for i := 0; i < len(order); {
		d := order[i].d
		j := i
		for ; j < len(order) && order[j].d == d; j++ {
			if alive[order[j].v] {
				kill(order[j].v)
			}
		}
		if !alive[a.Q] {
			c.dstar[key] = d
			return d, nil
		}
		i = j
	}
	return 0, fmt.Errorf("independent peel never drops q")
}

// ratioOf evaluates an algorithm's registry approximation ratio ("2+epsF",
// "1+epsA", "2") at the answer's parameter.
func ratioOf(algo string, param float64) (float64, error) {
	spec, ok := core.LookupAlgo(algo)
	if !ok {
		return 0, fmt.Errorf("unknown algorithm %q", algo)
	}
	total := 0.0
	for _, term := range strings.Split(spec.Ratio, "+") {
		if v, err := strconv.ParseFloat(term, 64); err == nil {
			total += v
		} else if _, ok := spec.Param(term); ok {
			total += param
		} else {
			return 0, fmt.Errorf("cannot evaluate ratio %q", spec.Ratio)
		}
	}
	return total, nil
}

// replay applies a subscription's event stream to its init frame and
// returns the final member set, or nil with ok=false for "no community".
func replay(events []subEvent) (members map[int64]bool, noCommunity bool, err error) {
	if len(events) == 0 || events[0].Kind != "init" {
		return nil, false, fmt.Errorf("stream does not start with init")
	}
	members = map[int64]bool{}
	for _, v := range events[0].Members {
		members[v] = true
	}
	noCommunity = events[0].NoCommunity
	for _, ev := range events[1:] {
		switch ev.Kind {
		case "init":
			members = map[int64]bool{}
			for _, v := range ev.Members {
				members[v] = true
			}
		case "delta":
			for _, v := range ev.Joined {
				members[v] = true
			}
			for _, v := range ev.Left {
				delete(members, v)
			}
		}
		noCommunity = ev.NoCommunity
	}
	return members, noCommunity, nil
}
