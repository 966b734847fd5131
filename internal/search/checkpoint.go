// Checkpoint/resume: the full engine state — every searcher's graph,
// rng position, costs and counters, plus the global best — serializes
// to indented JSON whose bytes are a pure function of that state.
// Resuming a checkpoint and running to the same Params.Epochs therefore
// re-emits an identical checkpoint (the CI smoke asserts this with cmp),
// and resuming with a higher Epochs continues the run exactly as if it
// had never stopped.
package search

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"

	"polarstar/internal/graph"
)

// CheckpointSchema identifies the checkpoint format.
const CheckpointSchema = "pssearch-checkpoint/v1"

// SearcherState is one annealer's serialized state.
type SearcherState struct {
	ID          int        `json:"id"`
	Rng         string     `json:"rng"` // splitmix64 position, hex
	Cost        int64      `json:"cost"`
	BestCost    int64      `json:"best_cost"`
	SinceResync int        `json:"since_resync"`
	Counters    Counters   `json:"counters"`
	Edges       [][2]int32 `json:"edges"`
	BestEdges   [][2]int32 `json:"best_edges"`
}

// Checkpoint is the serialized engine.
type Checkpoint struct {
	Schema     string          `json:"schema"`
	Name       string          `json:"name"`
	N          int             `json:"n"`
	Params     Params          `json:"params"`
	Epoch      int             `json:"epoch"`
	BestCost   int64           `json:"best_cost"`
	BestEdges  [][2]int32      `json:"best_edges"`
	Trajectory []EpochStat     `json:"trajectory"`
	States     []SearcherState `json:"states"`
}

// Checkpoint captures the engine's current state.
func (e *Engine) Checkpoint() *Checkpoint {
	cp := &Checkpoint{
		Schema:     CheckpointSchema,
		Name:       e.name,
		N:          e.n,
		Params:     e.p,
		Epoch:      e.epoch,
		BestCost:   e.bestCost,
		BestEdges:  e.bestEdges,
		Trajectory: e.traj,
	}
	for _, s := range e.searchers {
		cp.States = append(cp.States, SearcherState{
			ID:          s.id,
			Rng:         fmt.Sprintf("%016x", s.rng.x),
			Cost:        s.cost,
			BestCost:    s.bestCost,
			SinceResync: s.sinceResync,
			Counters:    s.ctr,
			Edges:       edgesOf(s.d.Graph()),
			BestEdges:   s.bestEdges,
		})
	}
	return cp
}

// Checkpoint validation errors, checkable with errors.Is. Restore
// returns them (wrapped with the offending detail) instead of panicking
// on a corrupted or hand-edited checkpoint.
var (
	// ErrCheckpointSchema: unknown schema string.
	ErrCheckpointSchema = errors.New("search: unsupported checkpoint schema")
	// ErrCheckpointStates: searcher states missing, miscounted or
	// misnumbered.
	ErrCheckpointStates = errors.New("search: invalid checkpoint searcher states")
	// ErrCheckpointVertices: n outside [1, graph.MaxEdgeListVertices].
	ErrCheckpointVertices = errors.New("search: checkpoint vertex count out of range")
	// ErrCheckpointEdges: an edge list with an out-of-range endpoint, a
	// self-loop, a duplicate edge or fewer than the 2 edges 2-opt needs.
	ErrCheckpointEdges = errors.New("search: invalid checkpoint edge list")
	// ErrCheckpointCost: a stored cost differs from the cost recomputed
	// from its edges.
	ErrCheckpointCost = errors.New("search: checkpoint cost does not match its graph")
)

// Validate checks everything Restore trusts: the schema, one state per
// searcher numbered in order, n in [1, graph.MaxEdgeListVertices],
// every edge list (each state's current and best graph, and the global
// best) in range with no self-loop or duplicate, and best_cost equal to
// the cost recomputed from best_edges. Each state's cost is checked
// against its graph by Restore, which builds that graph anyway.
func (cp *Checkpoint) Validate() error {
	if cp.Schema != CheckpointSchema {
		return fmt.Errorf("%w: %q, want %q", ErrCheckpointSchema, cp.Schema, CheckpointSchema)
	}
	if len(cp.States) == 0 {
		return fmt.Errorf("%w: none", ErrCheckpointStates)
	}
	if len(cp.States) != cp.Params.Searchers {
		return fmt.Errorf("%w: %d states for %d searchers", ErrCheckpointStates, len(cp.States), cp.Params.Searchers)
	}
	if cp.N < 1 || cp.N > graph.MaxEdgeListVertices {
		return fmt.Errorf("%w: n = %d, want [1, %d]", ErrCheckpointVertices, cp.N, graph.MaxEdgeListVertices)
	}
	seen := make(map[[2]int32]struct{})
	for i, st := range cp.States {
		if st.ID != i {
			return fmt.Errorf("%w: state %d has id %d", ErrCheckpointStates, i, st.ID)
		}
		if err := checkEdges(cp.N, st.Edges, seen); err != nil {
			return fmt.Errorf("%w: state %d edges: %v", ErrCheckpointEdges, i, err)
		}
		if err := checkEdges(cp.N, st.BestEdges, seen); err != nil {
			return fmt.Errorf("%w: state %d best_edges: %v", ErrCheckpointEdges, i, err)
		}
	}
	if err := checkEdges(cp.N, cp.BestEdges, seen); err != nil {
		return fmt.Errorf("%w: best_edges: %v", ErrCheckpointEdges, err)
	}
	if got := costFromEdges(cp.Name, cp.N, cp.BestEdges); got != cp.BestCost {
		return fmt.Errorf("%w: best_cost %d, recomputed %d from best_edges", ErrCheckpointCost, cp.BestCost, got)
	}
	return nil
}

// checkEdges validates one edge list of an n-vertex graph; seen is
// scratch, cleared on entry.
func checkEdges(n int, edges [][2]int32, seen map[[2]int32]struct{}) error {
	clear(seen)
	if len(edges) < 2 {
		return fmt.Errorf("%d edges, 2-opt needs at least 2", len(edges))
	}
	for _, e := range edges {
		u, v := e[0], e[1]
		if u < 0 || int(u) >= n || v < 0 || int(v) >= n {
			return fmt.Errorf("edge (%d,%d) outside [0,%d)", u, v, n)
		}
		if u == v {
			return fmt.Errorf("self-loop at %d", u)
		}
		if u > v {
			u, v = v, u
		}
		if _, dup := seen[[2]int32{u, v}]; dup {
			return fmt.Errorf("duplicate edge (%d,%d)", u, v)
		}
		seen[[2]int32{u, v}] = struct{}{}
	}
	return nil
}

// costFromEdges is the search objective (see costOf) of the graph the
// edge list describes, from its exact distance histogram.
func costFromEdges(name string, n int, edges [][2]int32) int64 {
	var sum, pairs int64
	for d, c := range buildFromEdges(name, n, edges).DistanceHistogram() {
		sum += int64(d) * c
		pairs += c
	}
	return sum + (int64(n)*int64(n-1)-pairs)*int64(n)
}

// Restore rebuilds an engine from a checkpoint. Workers comes from the
// caller (it is not part of the serialized state); epochs may be raised
// to continue a finished run.
func Restore(cp *Checkpoint, workers, epochs int) (*Engine, error) {
	if err := cp.Validate(); err != nil {
		return nil, err
	}
	p := cp.Params
	p.Workers = workers
	if epochs > p.Epochs {
		p.Epochs = epochs
	}
	e := &Engine{
		p:         p,
		name:      cp.Name,
		n:         cp.N,
		bestCost:  cp.BestCost,
		bestEdges: cp.BestEdges,
		epoch:     cp.Epoch,
		traj:      cp.Trajectory,
	}
	e.initPools()
	for i, st := range cp.States {
		var x uint64
		if _, err := fmt.Sscanf(st.Rng, "%x", &x); err != nil {
			return nil, fmt.Errorf("search: state %d rng %q: %v", i, st.Rng, err)
		}
		s := &searcher{
			id:          st.ID,
			d:           nil,
			rng:         splitmix{x: x},
			cost:        st.Cost,
			bestCost:    st.BestCost,
			bestEdges:   st.BestEdges,
			sinceResync: st.SinceResync,
			ctr:         st.Counters,
		}
		s.d = graph.NewDeltaStatsPool(buildFromEdges(cp.Name, cp.N, st.Edges), e.pools[0])
		if got := costOf(s.d, cp.N); got != st.Cost {
			return nil, fmt.Errorf("%w: state %d cost %d, recomputed %d", ErrCheckpointCost, i, st.Cost, got)
		}
		e.searchers = append(e.searchers, s)
	}
	return e, nil
}

// WriteCheckpoint writes the checkpoint as indented JSON with a trailing
// newline. The encoding is deterministic: struct fields in declaration
// order, no maps, no timestamps.
func WriteCheckpoint(path string, cp *Checkpoint) error {
	b, err := json.MarshalIndent(cp, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

// ReadCheckpoint loads a checkpoint written by WriteCheckpoint.
func ReadCheckpoint(path string) (*Checkpoint, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	cp, err := decodeCheckpoint(b)
	if err != nil {
		return nil, fmt.Errorf("search: checkpoint %s: %v", path, err)
	}
	return cp, nil
}

// decodeCheckpoint parses checkpoint JSON without validating it (Restore
// does).
func decodeCheckpoint(b []byte) (*Checkpoint, error) {
	cp := &Checkpoint{}
	if err := json.Unmarshal(b, cp); err != nil {
		return nil, err
	}
	return cp, nil
}
