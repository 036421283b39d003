package main

import (
	"context"
	"math"
	"strings"
	"testing"

	"sacsearch/internal/core"
	"sacsearch/internal/geom"
	"sacsearch/internal/graph"
)

// twoCliques builds two 5-cliques far apart plus vertex 10, adjacent to
// vertices 0-3 of the first, so {0,1,2,3,10} is a second 4-core around
// vertex 0.
func twoCliques() *graph.Graph {
	b := graph.NewBuilder(11)
	for c := 0; c < 2; c++ {
		for i := 0; i < 5; i++ {
			ang := 2 * math.Pi * float64(i) / 5
			b.SetLoc(graph.V(c*5+i), geom.Point{X: float64(c)*10 + math.Cos(ang), Y: math.Sin(ang)})
			for j := i + 1; j < 5; j++ {
				b.AddEdge(graph.V(c*5+i), graph.V(c*5+j))
			}
		}
	}
	b.SetLoc(10, geom.Point{X: 0.6, Y: 0.3})
	for v := graph.V(0); v < 4; v++ {
		b.AddEdge(10, v)
	}
	return b.Build()
}

// programAnswer returns the program's own answer, which must pass.
func programAnswer(t *testing.T, g *graph.Graph, q core.Query) *Answer {
	t.Helper()
	res, err := core.NewSearcher(g).Search(context.Background(), q)
	a, err := fromResult(q, res, err)
	if err != nil {
		t.Fatal(err)
	}
	return a
}

func clone(a *Answer) *Answer {
	b := *a
	b.Members = append([]int32(nil), a.Members...)
	return &b
}

func TestCheckerAcceptsProgramAnswers(t *testing.T) {
	g := twoCliques()
	chk := NewChecker(NewMirror(g))
	for _, q := range []core.Query{
		{Algo: "appinc", Q: 0, K: 4},
		{Algo: "appfast", Q: 0, K: 4, EpsF: core.Float(0.5)},
		{Algo: "appacc", Q: 7, K: 4, EpsA: core.Float(0.5)},
		{Algo: "theta", Q: 0, K: 4, Theta: core.Float(3)},
		{Algo: "theta", Q: 0, K: 4, Theta: core.Float(0.1)},
		{Algo: "appinc", Q: 10, K: 5},
	} {
		if err := chk.Check(programAnswer(t, g, q)); err != nil {
			t.Errorf("%+v: %v", q, err)
		}
	}
}

func TestCheckerRejectsBadAnswers(t *testing.T) {
	g := twoCliques()
	m := NewMirror(g)
	good := programAnswer(t, g, core.Query{Algo: "appinc", Q: 0, K: 4})
	pts := func(vs []int32) []geom.Point {
		var p []geom.Point
		for _, v := range vs {
			p = append(p, m.Loc(v))
		}
		return p
	}
	cases := []struct {
		name, want string
		mutate     func(a *Answer)
	}{
		{"missing q", "q is not a member", func(a *Answer) {
			a.Members = a.Members[1:] // members ascend, so q = 0 is first
		}},
		{"disconnected", "not connected", func(a *Answer) {
			a.Members = []int32{0, 1, 2, 3, 4, 5, 6, 7, 8, 9}
			a.MCC = geom.MCC(pts(a.Members))
		}},
		{"low degree", "induced degree", func(a *Answer) {
			a.Members = []int32{0, 1, 2, 3}
			a.MCC = geom.MCC(pts(a.Members))
		}},
		{"member outside circle", "outside the MCC", func(a *Answer) {
			a.MCC.R *= 0.8
		}},
		{"non-minimal circle", "not minimal", func(a *Answer) {
			a.MCC.R *= 1.5
		}},
		{"shifted circle", "not minimal", func(a *Answer) {
			a.MCC.C.X += 0.2
			a.MCC.R += 0.2
		}},
		{"wrong appinc delta", "independent delta*", func(a *Answer) {
			a.Delta *= 1.01
		}},
		{"delta below delta*", "below delta*", func(a *Answer) {
			a.Algo, a.Param = "appfast", 0.5
			a.Delta *= 0.9
		}},
		{"false no-community", "lies in the 4-core", func(a *Answer) {
			a.NoCommunity, a.Members = true, nil
		}},
		{"theta member outside theta", "theta", func(a *Answer) {
			a.Algo, a.Param = "theta", 0.5
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			bad := clone(good)
			tc.mutate(bad)
			err := NewChecker(NewMirror(g)).Check(bad)
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("got %v, want an error containing %q", err, tc.want)
			}
		})
	}
}

func TestCheckRadiusBounds(t *testing.T) {
	a := &Answer{Algo: "appfast", Param: 0.5}
	for _, tc := range []struct {
		r  float64
		ok bool
	}{{0.49, false}, {0.5, true}, {2.5, true}, {2.51, false}} {
		a.MCC.R = tc.r
		if err := checkRadius(a, 1); (err == nil) != tc.ok {
			t.Errorf("radius %v with delta* 1: err = %v, want ok=%v", tc.r, err, tc.ok)
		}
	}
}

func TestCheckerFollowsWrites(t *testing.T) {
	g := twoCliques()
	m := NewMirror(g)
	base := m.Fingerprint()
	w := Write{Checkin: true, V: 10, Loc: geom.Point{X: 5, Y: 5}}
	inv := m.Inverse(w)
	m.Apply(w)
	if m.Fingerprint() == base {
		t.Fatal("fingerprint did not change after a check-in")
	}
	// On the moved state the old answer's circle no longer covers vertex
	// 10, so it must be rejected.
	good := programAnswer(t, g, core.Query{Algo: "appinc", Q: 0, K: 4})
	if err := NewChecker(m).Check(good); err == nil {
		t.Fatal("an answer from the old state passed on the new one")
	}
	m.Apply(inv)
	if m.Fingerprint() != base {
		t.Fatal("fingerprint did not return to the base after the inverse write")
	}
	e := Write{U: 4, W: 10, Insert: true}
	m.Apply(e)
	if !m.HasEdge(10, 4) {
		t.Fatal("edge insert not applied")
	}
	m.Apply(m.Inverse(e))
	if m.HasEdge(10, 4) || m.Fingerprint() != base {
		t.Fatal("edge delete did not restore the base")
	}
}

func TestBatchSingleAndReplay(t *testing.T) {
	a := &Answer{Members: []int32{1, 2, 3}, MCC: geom.Circle{R: 1}}
	b := clone(a)
	if !sameAnswer(a, b) {
		t.Fatal("identical answers differ")
	}
	b.Members[2] = 4
	if sameAnswer(a, b) {
		t.Fatal("different members compare equal")
	}
	evs := []subEvent{
		{Kind: "init", Members: []int64{1, 2, 3}},
		{Kind: "delta", Joined: []int64{4}, Left: []int64{1}},
	}
	got, noComm, err := replay(evs)
	if err != nil || noComm || len(got) != 3 || got[1] || !got[4] {
		t.Fatalf("replay = %v, %v, %v", got, noComm, err)
	}
	if _, _, err := replay(evs[1:]); err == nil {
		t.Fatal("a stream without init replayed")
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
	q1, q2, q3 := quartiles([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if q1 != 2.75 || q2 != 5.5 || q3 != 8.25 {
		t.Fatalf("quartiles = %v %v %v", q1, q2, q3)
	}
}
