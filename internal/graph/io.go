package graph

import (
	"bufio"
	"fmt"
	"io"
	"strings"
)

// WriteEdgeList serializes the graph in a plain-text format:
//
//	# name <name>
//	# n <vertices> m <edges> loops <loops>
//	u v        (one edge per line, u < v)
//	v loop     (one line per self-loop annotation)
//
// The format round-trips through ReadEdgeList and is the interchange format
// emitted by cmd/psgen.
func (g *Graph) WriteEdgeList(w io.Writer) error {
	bw := bufio.NewWriter(w)
	if _, err := fmt.Fprintf(bw, "# name %s\n# n %d m %d loops %d\n", g.name, g.n, g.nEdges, g.nLoops); err != nil {
		return err
	}
	for u := 0; u < g.n; u++ {
		for _, v := range g.Neighbors(u) {
			if int(v) > u {
				if _, err := fmt.Fprintf(bw, "%d %d\n", u, v); err != nil {
					return err
				}
			}
		}
	}
	for v := 0; v < g.n; v++ {
		if g.loops[v] {
			if _, err := fmt.Fprintf(bw, "%d loop\n", v); err != nil {
				return err
			}
		}
	}
	return bw.Flush()
}

// MaxEdgeListVertices caps the '# n' header ReadEdgeList accepts. The
// builder allocates per-vertex storage before any edge is read, so an
// unchecked header would let a few bytes of input demand gigabytes. The
// cap is far above every generated topology (the largest Table-3
// network has 13,272 routers).
const MaxEdgeListVertices = 1 << 22

// ReadEdgeList parses the format produced by WriteEdgeList. Malformed
// input — a vertex count outside [0, MaxEdgeListVertices], an edge
// before the header or naming a vertex outside [0, n) — returns an
// error; no input panics.
func ReadEdgeList(r io.Reader) (*Graph, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<16), 1<<24)
	name := ""
	n := -1
	var b *Builder
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" {
			continue
		}
		if strings.HasPrefix(line, "#") {
			fields := strings.Fields(line)
			for i := 1; i < len(fields)-1; i++ {
				switch fields[i] {
				case "name":
					name = fields[i+1]
				case "n":
					if _, err := fmt.Sscanf(fields[i+1], "%d", &n); err != nil {
						return nil, fmt.Errorf("graph: bad header %q: %v", line, err)
					}
					if n < 0 || n > MaxEdgeListVertices {
						return nil, fmt.Errorf("graph: vertex count %d outside [0, %d]", n, MaxEdgeListVertices)
					}
				}
			}
			continue
		}
		if n < 0 {
			return nil, fmt.Errorf("graph: edge before '# n <count>' header")
		}
		if b == nil {
			b = NewBuilder(name, n)
		}
		var u, v int
		if strings.HasSuffix(line, "loop") {
			if _, err := fmt.Sscanf(line, "%d loop", &u); err != nil {
				return nil, fmt.Errorf("graph: bad loop line %q: %v", line, err)
			}
			v = u
		} else if _, err := fmt.Sscanf(line, "%d %d", &u, &v); err != nil {
			return nil, fmt.Errorf("graph: bad edge line %q: %v", line, err)
		}
		// A later header may change n; the builder's count is the bound.
		if u < 0 || u >= b.n || v < 0 || v >= b.n {
			return nil, fmt.Errorf("graph: edge line %q names a vertex outside [0, %d)", line, b.n)
		}
		b.AddEdge(u, v)
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if b == nil {
		if n < 0 {
			return nil, fmt.Errorf("graph: empty input")
		}
		b = NewBuilder(name, n)
	}
	return b.Build(), nil
}
