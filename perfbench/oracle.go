package main

import (
	"bufio"
	"fmt"
	"io"
	"os"
	"sort"
	"strconv"
	"strings"

	"repro/internal/gfd"
	"repro/internal/graph"
	"repro/internal/pattern"
)

// The oracle checks the violation sets of check and update. It shares no
// code with the engines or the storage layer: it holds the graph in plain
// maps, reads it from the gfdio text dump with its own parser, follows
// updates as the recording mutator logged them, and evaluates triangle GFDs
// by brute force under homomorphism semantics (pattern nodes may share a
// data node).

// oEdge is a directed edge with an interned label.
type oEdge struct {
	from, to graph.NodeID
	label    int32
}

// mapGraph is the oracle's graph. Only live nodes have a label entry.
type mapGraph struct {
	label   map[graph.NodeID]string
	attrs   map[graph.NodeID]map[string]string
	edges   map[oEdge]bool
	out, in map[graph.NodeID][]oEdge
	labels  map[string]int32 // edge label interning
	names   []string         // edge label by interned id
}

func newMapGraph() *mapGraph {
	return &mapGraph{
		label:  map[graph.NodeID]string{},
		attrs:  map[graph.NodeID]map[string]string{},
		edges:  map[oEdge]bool{},
		out:    map[graph.NodeID][]oEdge{},
		in:     map[graph.NodeID][]oEdge{},
		labels: map[string]int32{},
	}
}

// readMapGraph parses the gfdio text format: "node <id> <label> [k=v ...]"
// and "edge <from> <to> <label>" lines.
func readMapGraph(r io.Reader) (*mapGraph, error) {
	g := newMapGraph()
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for ln := 1; sc.Scan(); ln++ {
		f := strings.Fields(sc.Text())
		if len(f) == 0 || strings.HasPrefix(f[0], "#") {
			continue
		}
		switch {
		case f[0] == "node" && len(f) >= 3:
			id, err := strconv.Atoi(f[1])
			if err != nil {
				return nil, fmt.Errorf("oracle graph line %d: %v", ln, err)
			}
			v := graph.NodeID(id)
			g.label[v] = f[2]
			for _, kv := range f[3:] {
				k, val, ok := strings.Cut(kv, "=")
				if !ok {
					return nil, fmt.Errorf("oracle graph line %d: bad attribute %q", ln, kv)
				}
				g.setAttr(v, k, val)
			}
		case f[0] == "edge" && len(f) == 4:
			from, err1 := strconv.Atoi(f[1])
			to, err2 := strconv.Atoi(f[2])
			if err1 != nil || err2 != nil {
				return nil, fmt.Errorf("oracle graph line %d: bad edge", ln)
			}
			g.addEdge(graph.NodeID(from), graph.NodeID(to), f[3])
		default:
			return nil, fmt.Errorf("oracle graph line %d: cannot parse %q", ln, sc.Text())
		}
	}
	return g, sc.Err()
}

// readMapGraphFile reads the oracle's graph from a text file.
func readMapGraphFile(path string) (*mapGraph, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return readMapGraph(bufio.NewReader(f))
}

func (g *mapGraph) labelID(l string) int32 {
	id, ok := g.labels[l]
	if !ok {
		id = int32(len(g.names))
		g.labels[l] = id
		g.names = append(g.names, l)
	}
	return id
}

func (g *mapGraph) addNode(v graph.NodeID, label string) { g.label[v] = label }

func (g *mapGraph) setAttr(v graph.NodeID, a, c string) {
	m := g.attrs[v]
	if m == nil {
		m = map[string]string{}
		g.attrs[v] = m
	}
	m[a] = c
}

func (g *mapGraph) addEdge(from, to graph.NodeID, label string) {
	e := oEdge{from, to, g.labelID(label)}
	if g.edges[e] {
		return
	}
	g.edges[e] = true
	g.out[from] = append(g.out[from], e)
	g.in[to] = append(g.in[to], e)
}

func (g *mapGraph) removeEdge(from, to graph.NodeID, label string) {
	e := oEdge{from, to, g.labelID(label)}
	if !g.edges[e] {
		return
	}
	delete(g.edges, e)
	g.out[from] = without(g.out[from], e)
	g.in[to] = without(g.in[to], e)
}

func without(es []oEdge, e oEdge) []oEdge {
	for i, x := range es {
		if x == e {
			es[i] = es[len(es)-1]
			return es[:len(es)-1]
		}
	}
	return es
}

// removeNode drops v with its attributes and every incident edge.
func (g *mapGraph) removeNode(v graph.NodeID) {
	if _, ok := g.label[v]; !ok {
		return
	}
	for _, e := range append([]oEdge(nil), g.out[v]...) {
		g.removeEdge(e.from, e.to, g.names[e.label])
	}
	for _, e := range append([]oEdge(nil), g.in[v]...) {
		g.removeEdge(e.from, e.to, g.names[e.label])
	}
	delete(g.label, v)
	delete(g.attrs, v)
	delete(g.out, v)
	delete(g.in, v)
}

// renumber applies a compaction remap to every node ID.
func (g *mapGraph) renumber(m graph.Remap) error {
	h := &mapGraph{
		label: map[graph.NodeID]string{}, attrs: map[graph.NodeID]map[string]string{},
		edges: map[oEdge]bool{}, out: map[graph.NodeID][]oEdge{}, in: map[graph.NodeID][]oEdge{},
		labels: g.labels, names: g.names,
	}
	for v, l := range g.label {
		nv := m.Of(v)
		if nv == graph.InvalidNode {
			return fmt.Errorf("compaction dropped live node %d", v)
		}
		h.label[nv] = l
		if a := g.attrs[v]; a != nil {
			h.attrs[nv] = a
		}
	}
	for e := range g.edges {
		ne := oEdge{m.Of(e.from), m.Of(e.to), e.label}
		h.edges[ne] = true
		h.out[ne.from] = append(h.out[ne.from], ne)
		h.in[ne.to] = append(h.in[ne.to], ne)
	}
	*g = *h
	return nil
}

// violKey identifies a violation: the GFD's index in Σ and the data nodes
// its pattern variables map to.
type violKey struct {
	gfd   int
	match [3]graph.NodeID
}

// violations evaluates every GFD of set by brute force. Patterns must have
// at most three variables, each after the first linked by an edge to an
// earlier one (the triangle GFDs of the check and update workloads). GFDs
// whose patterns have the same labels and edges are enumerated together.
func (g *mapGraph) violations(set *gfd.Set) (map[violKey]bool, error) {
	out := map[violKey]bool{}
	nodes := make([]graph.NodeID, 0, len(g.label))
	for v := range g.label {
		nodes = append(nodes, v)
	}
	sort.Slice(nodes, func(i, j int) bool { return nodes[i] < nodes[j] })
	var shapes []string
	members := map[string][]int{}
	for gi, phi := range set.GFDs {
		p := phi.Pattern
		shape := fmt.Sprint(p.NumVars(), p.Edges())
		for v := 0; v < p.NumVars(); v++ {
			shape += " " + p.Label(pattern.Var(v))
		}
		if members[shape] == nil {
			shapes = append(shapes, shape)
		}
		members[shape] = append(members[shape], gi)
	}
	for _, shape := range shapes {
		gis := members[shape]
		if err := g.enumerate(set.GFDs[gis[0]], nodes, func(h []graph.NodeID) {
			for _, gi := range gis {
				phi := set.GFDs[gi]
				if g.holds(h, phi.X) && !g.holds(h, phi.Y) {
					k := violKey{gfd: gi}
					copy(k.match[:], h)
					out[k] = true
				}
			}
		}); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// enumerate calls emit with every homomorphic match of phi's pattern,
// extending variables in index order: the first from all nodes, each later
// one from the neighbours of an earlier variable along its link edge, then
// checking its other edges to earlier variables.
func (g *mapGraph) enumerate(phi *gfd.GFD, nodes []graph.NodeID, emit func([]graph.NodeID)) error {
	p := phi.Pattern
	n := p.NumVars()
	if n > 3 {
		return fmt.Errorf("oracle: GFD %s has %d variables, want at most 3", phi.Name, n)
	}
	es := p.Edges()
	// link[k] is a pattern edge joining k to an earlier variable.
	link := make([]int, n)
	for k := 1; k < n; k++ {
		link[k] = -1
		for i, e := range es {
			if (int(e.From) == k && int(e.To) < k) || (int(e.To) == k && int(e.From) < k) {
				link[k] = i
				break
			}
		}
		if link[k] < 0 {
			return fmt.Errorf("oracle: GFD %s: variable %d has no edge to an earlier one", phi.Name, k)
		}
	}
	h := make([]graph.NodeID, n)
	var try func(k int)
	try = func(k int) {
		if k == n {
			emit(h)
			return
		}
		var cands []graph.NodeID
		if k == 0 {
			cands = nodes
		} else {
			e := es[link[k]]
			lid, ok := g.labels[e.Label]
			if !ok && e.Label != graph.Wildcard {
				return
			}
			if int(e.To) == k {
				for _, de := range g.out[h[e.From]] {
					if de.label == lid || e.Label == graph.Wildcard {
						cands = append(cands, de.to)
					}
				}
			} else {
				for _, de := range g.in[h[e.To]] {
					if de.label == lid || e.Label == graph.Wildcard {
						cands = append(cands, de.from)
					}
				}
			}
		}
		want := p.Label(pattern.Var(k))
	next:
		for _, c := range cands {
			if want != graph.Wildcard && g.label[c] != want {
				continue
			}
			h[k] = c
			for i, e := range es {
				f, t := int(e.From), int(e.To)
				if i != link[k] && (f == k || t == k) && f <= k && t <= k && !g.hasEdge(h[f], h[t], e.Label) {
					continue next
				}
			}
			try(k + 1)
		}
	}
	try(0)
	return nil
}

// hasEdge scans from's out-edges for one to to with the given label.
func (g *mapGraph) hasEdge(from, to graph.NodeID, label string) bool {
	lid, ok := g.labels[label]
	if !ok && label != graph.Wildcard {
		return false
	}
	for _, e := range g.out[from] {
		if e.to == to && (e.label == lid || label == graph.Wildcard) {
			return true
		}
	}
	return false
}

// holds evaluates literals on actual values: x.A = c needs A present at h(x)
// with value c; x.A = y.B needs both present and equal.
func (g *mapGraph) holds(h []graph.NodeID, ls []gfd.Literal) bool {
	for _, l := range ls {
		a, ok := g.attrs[h[l.X]][l.A]
		if !ok {
			return false
		}
		switch l.Kind {
		case gfd.ConstLiteral:
			if a != l.Const {
				return false
			}
		case gfd.VarLiteral:
			if b, ok := g.attrs[h[l.Y]][l.B]; !ok || a != b {
				return false
			}
		}
	}
	return true
}
