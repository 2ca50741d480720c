package insight

import (
	"fmt"
	"io"
	"sort"
	"time"

	"repro/internal/stats"
)

// GraphNode is one vertex of the service graph: a component of the
// simulated stack at the granularity requests move between them —
// the gateway, the cluster scheduler, one fleet node, one pipeline
// stage, one bus topic, one workflow or step.
type GraphNode struct {
	Name  string `json:"name"`
	Kind  string `json:"kind"` // gateway, cluster, node, stage, topic, workflow, step, component
	Count int    `json:"count"`
}

// GraphEdge is one directed edge with RED stats: how often requests
// crossed it, how many of those erred, and the latency distribution of
// the downstream span.
type GraphEdge struct {
	From   string `json:"from"`
	To     string `json:"to"`
	Count  int    `json:"count"`
	Errors int    `json:"errors"`
	// ErrorMilli is Errors/Count in 1/1000ths.
	ErrorMilli int64 `json:"error_milli"`
	// RateMilli is crossings per 1000 virtual seconds of summed root
	// time — an integer so exports stay byte-stable.
	RateMilli int64         `json:"rate_milli"`
	P50       time.Duration `json:"p50_ns"`
	P99       time.Duration `json:"p99_ns"`

	durs []float64 // downstream span durations (ns); not exported
}

// ServiceGraph is the component graph of one analyzed journal. Nodes
// and edges are sorted by name, so JSON/DOT/Mermaid exports are
// byte-stable.
type ServiceGraph struct {
	// WindowNS is the summed root-span virtual time the edge rates are
	// computed against.
	WindowNS int64       `json:"window_ns"`
	Nodes    []GraphNode `json:"nodes"`
	Edges    []GraphEdge `json:"edges"`
}

// graphNodeName maps a span onto its service-graph vertex.
func graphNodeName(s *span) (name, kind string) {
	switch s.component {
	case "gateway":
		return "gateway", "gateway"
	case "cluster":
		return "cluster", "cluster"
	case "core":
		switch s.name {
		case "invoke", "install":
			if s.node != "" {
				return "node:" + s.node, "node"
			}
			return "core", "node"
		default:
			return "stage:" + s.name, "stage"
		}
	case "workflow":
		switch s.name {
		case "run":
			if wf := s.attrs["workflow"]; wf != "" {
				return "workflow:" + wf, "workflow"
			}
			return "workflow", "workflow"
		case "step":
			if st := s.attrs["step"]; st != "" {
				return "step:" + st, "step"
			}
			return "step", "step"
		default:
			return "workflow:" + s.name, "workflow"
		}
	default:
		return s.component, "component"
	}
}

// buildGraph derives the service graph from reconstructed trace trees:
// span parent→child transitions become edges carrying the child's
// duration, and msgbus produce/consume instants become hops through
// their topic vertices.
func buildGraph(trees []*traceTree) ServiceGraph {
	nodes := map[string]*GraphNode{}
	edges := map[[2]string]*GraphEdge{}
	node := func(name, kind string) *GraphNode {
		n := nodes[name]
		if n == nil {
			n = &GraphNode{Name: name, Kind: kind}
			nodes[name] = n
		}
		return n
	}
	edge := func(from, to string) *GraphEdge {
		key := [2]string{from, to}
		e := edges[key]
		if e == nil {
			e = &GraphEdge{From: from, To: to}
			edges[key] = e
		}
		return e
	}

	var window time.Duration
	for _, t := range trees {
		for _, r := range t.roots {
			window += r.total
		}
		for _, s := range t.order {
			name, kind := graphNodeName(s)
			node(name, kind).Count++
			p := t.spans[s.parent]
			if p == nil || p == s {
				continue
			}
			pname, _ := graphNodeName(p)
			if pname == name {
				continue
			}
			e := edge(pname, name)
			e.Count++
			if s.errMsg != "" {
				e.Errors++
			}
			e.durs = append(e.durs, float64(s.total))
		}
		for _, in := range t.instants {
			if in.component != "msgbus" {
				continue
			}
			topic := in.attrs["topic"]
			if topic == "" {
				continue
			}
			encl := t.spans[in.parent]
			host := "host"
			if encl != nil {
				host, _ = graphNodeName(encl)
			} else {
				node("host", "component")
			}
			tn := node("topic:"+topic, "topic")
			tn.Count++
			switch in.name {
			case "produce", "produce-batch":
				edge(host, tn.Name).Count++
			case "consume", "consume-batch":
				edge(tn.Name, host).Count++
			}
		}
	}

	g := ServiceGraph{WindowNS: int64(window)}
	names := make([]string, 0, len(nodes))
	for n := range nodes {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		g.Nodes = append(g.Nodes, *nodes[n])
	}
	keys := make([][2]string, 0, len(edges))
	for k := range edges {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i][0] != keys[j][0] {
			return keys[i][0] < keys[j][0]
		}
		return keys[i][1] < keys[j][1]
	})
	for _, k := range keys {
		e := edges[k]
		if e.Count > 0 {
			e.ErrorMilli = int64(e.Errors) * 1000 / int64(e.Count)
		}
		if window > 0 {
			e.RateMilli = int64(e.Count) * 1000 * int64(time.Second) / int64(window)
		}
		if len(e.durs) > 0 {
			e.P50 = time.Duration(stats.Percentile(e.durs, 50))
			e.P99 = time.Duration(stats.Percentile(e.durs, 99))
		}
		e.durs = nil
		g.Edges = append(g.Edges, *e)
	}
	return g
}

// WriteDOT renders the graph as Graphviz DOT, nodes and edges in
// sorted order.
func (g ServiceGraph) WriteDOT(w io.Writer) error {
	if _, err := fmt.Fprintln(w, "digraph insight {"); err != nil {
		return err
	}
	fmt.Fprintln(w, "  rankdir=LR;")
	shapes := map[string]string{
		"gateway": "box", "cluster": "diamond", "node": "box3d",
		"stage": "ellipse", "topic": "cds", "workflow": "folder",
		"step": "component",
	}
	for _, n := range g.Nodes {
		shape := shapes[n.Kind]
		if shape == "" {
			shape = "ellipse"
		}
		fmt.Fprintf(w, "  %q [shape=%s,label=\"%s\\nn=%d\"];\n", n.Name, shape, n.Name, n.Count)
	}
	for _, e := range g.Edges {
		fmt.Fprintf(w, "  %q -> %q [label=\"n=%d err=%d p99=%s\"];\n",
			e.From, e.To, e.Count, e.Errors, e.P99)
	}
	_, err := fmt.Fprintln(w, "}")
	return err
}
