package main

import (
	"reflect"
	"strings"
	"testing"

	"repro/internal/gfd"
	"repro/internal/graph"
	"repro/internal/pattern"
)

func mustGraph(t *testing.T, text string) *mapGraph {
	t.Helper()
	g, err := readMapGraph(strings.NewReader(text))
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func mustGFD(t *testing.T, name string, p *pattern.Pattern, xs, ys []gfd.Literal) *gfd.GFD {
	t.Helper()
	phi, err := gfd.New(name, p, xs, ys)
	if err != nil {
		t.Fatal(err)
	}
	return phi
}

// triangle returns x:lx -e1-> y:ly -e2-> z:lz with x -e3-> z.
func triangle(lx, ly, lz, e1, e2, e3 string) *pattern.Pattern {
	p := pattern.New()
	x := p.AddVar("x", lx)
	y := p.AddVar("y", ly)
	z := p.AddVar("z", lz)
	p.AddEdge(x, y, e1)
	p.AddEdge(y, z, e2)
	p.AddEdge(x, z, e3)
	return p
}

func key(gi int, x, y, z graph.NodeID) violKey {
	return violKey{gfd: gi, match: [3]graph.NodeID{x, y, z}}
}

func mustViolations(t *testing.T, g *mapGraph, set *gfd.Set) map[violKey]bool {
	t.Helper()
	got, err := g.violations(set)
	if err != nil {
		t.Fatal(err)
	}
	return got
}

// Two triangles share node 1; the path 0→1→4 is not closed by 0→4 and so
// is no match. Triangle (0,1,2) satisfies every rule, triangle (3,1,4)
// violates each one.
func TestOracleTriangles(t *testing.T) {
	g := mustGraph(t, `
node 0 A a=1
node 1 B
node 2 C a=1 b=ok
node 3 A a=2
node 4 C
edge 0 1 p
edge 1 2 q
edge 0 2 r
edge 3 1 p
edge 1 4 q
edge 3 4 r
`)
	p := triangle("A", "B", "C", "p", "q", "r")
	set := gfd.NewSet(
		mustGFD(t, "const", p, nil, []gfd.Literal{gfd.Const(0, "a", "1")}),
		mustGFD(t, "cond", p, []gfd.Literal{gfd.Const(0, "a", "2")}, []gfd.Literal{gfd.Const(2, "b", "ok")}),
		mustGFD(t, "vars", p, nil, []gfd.Literal{gfd.Vars(0, "a", 2, "a")}),
		// X never holds: no violations.
		mustGFD(t, "idle", p, []gfd.Literal{gfd.Const(1, "a", "1")}, []gfd.Literal{gfd.Const(0, "a", "9")}),
	)
	want := map[violKey]bool{
		key(0, 3, 1, 4): true, // 3.a = 2, not 1
		key(1, 3, 1, 4): true, // 3.a = 2 but 4 has no b
		key(2, 3, 1, 4): true, // 4 has no a
	}
	if got := mustViolations(t, g, set); !reflect.DeepEqual(got, want) {
		t.Fatalf("violations = %v, want %v", got, want)
	}
}

// Under homomorphism semantics every pattern node may map to one data
// node: a self-loop matches the whole triangle.
func TestOracleHomomorphism(t *testing.T) {
	g := mustGraph(t, `
node 0 A v=bad
node 1 A v=good
edge 0 0 l
edge 1 0 l
`)
	set := gfd.NewSet(mustGFD(t, "loop", triangle("A", "A", "A", "l", "l", "l"), nil,
		[]gfd.Literal{gfd.Const(0, "v", "good")}))
	// Matches: (0,0,0) and (1,0,0); only x=0 violates.
	want := map[violKey]bool{key(0, 0, 0, 0): true}
	if got := mustViolations(t, g, set); !reflect.DeepEqual(got, want) {
		t.Fatalf("violations = %v, want %v", got, want)
	}
}

// A wildcard node label matches any node, a wildcard edge label any edge;
// the closing edge may point either way.
func TestOracleWildcardsAndReverseEdge(t *testing.T) {
	g := mustGraph(t, `
node 0 A
node 1 B
node 2 C
node 3 D
edge 0 1 p
edge 0 3 p
edge 1 2 q
edge 3 2 s
edge 2 0 r
`)
	p := pattern.New()
	x := p.AddVar("x", "A")
	y := p.AddVar("y", graph.Wildcard)
	z := p.AddVar("z", "C")
	p.AddEdge(x, y, "p")
	p.AddEdge(y, z, graph.Wildcard)
	p.AddEdge(z, x, "r")
	set := gfd.NewSet(mustGFD(t, "wild", p, nil, []gfd.Literal{gfd.Const(1, "w", "1")}))
	want := map[violKey]bool{key(0, 0, 1, 2): true, key(0, 0, 3, 2): true}
	if got := mustViolations(t, g, set); !reflect.DeepEqual(got, want) {
		t.Fatalf("violations = %v, want %v", got, want)
	}
}

// Logged updates and a compaction remap move the oracle's graph, and its
// violations follow.
func TestOracleUpdatesAndRemap(t *testing.T) {
	g := mustGraph(t, `
node 0 A a=1
node 1 B
node 2 C
node 3 A a=1
edge 0 1 p
edge 1 2 q
edge 0 2 r
`)
	set := gfd.NewSet(mustGFD(t, "const", triangle("A", "B", "C", "p", "q", "r"), nil,
		[]gfd.Literal{gfd.Const(0, "a", "1")}))
	log := []update{
		{kind: 'a', v: 0, attr: "a", value: "2"}, // (0,1,2) now violates
		{kind: 'n', v: 4, label: "B"},
		{kind: 'e', v: 3, to: 4, label: "p"},
		{kind: 'e', v: 4, to: 2, label: "q"},
		{kind: 'e', v: 3, to: 2, label: "r"}, // (3,4,2) closes, holds
		{kind: 'x', v: 1},                    // drops (0,1,2) with its edges
		{kind: 'a', v: 3, attr: "a", value: "3"},
	}
	for _, u := range log {
		u.apply(g)
	}
	if got, want := mustViolations(t, g, set), map[violKey]bool{key(0, 3, 4, 2): true}; !reflect.DeepEqual(got, want) {
		t.Fatalf("after updates: violations = %v, want %v", got, want)
	}
	if len(g.out[0]) != 1 || len(g.in[2]) != 3 {
		t.Fatalf("removing node 1 left out(0)=%v in(2)=%v", g.out[0], g.in[2])
	}
	// Compaction drops dead slot 1 and shifts the IDs above it down.
	if err := g.renumber(graph.Remap{0, graph.InvalidNode, 1, 2, 3}); err != nil {
		t.Fatal(err)
	}
	if got, want := mustViolations(t, g, set), map[violKey]bool{key(0, 2, 3, 1): true}; !reflect.DeepEqual(got, want) {
		t.Fatalf("after remap: violations = %v, want %v", got, want)
	}
}
