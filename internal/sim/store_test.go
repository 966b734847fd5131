package sim

import (
	"math/rand"
	"testing"
	"unsafe"
)

// TestPktRecSize pins the packet record to one 64-byte cache line.
func TestPktRecSize(t *testing.T) {
	if n := unsafe.Sizeof(pktRec{}); n != 64 {
		t.Fatalf("pktRec is %d bytes, want 64", n)
	}
}

// TestQueueSetModel checks the intrusive FIFOs against a slice-of-slices
// model: random interleaved push, pop, front, empty and len over many
// units, with ids drawn from the slab's free stack and pushed back on
// pop, so every id is recycled many times and the slab grows under live
// queues.
func TestQueueSetModel(t *testing.T) {
	const units = 97
	var st pktStore
	qs := newQueueSet(units, &st)
	model := make([][]int32, units)
	rng := rand.New(rand.NewSource(5))
	pushes := 0
	for step := 0; step < 200000; step++ {
		u := int32(rng.Intn(units))
		// Bias toward pushes early so queues get deep and the slab
		// grows, then toward pops so they drain back to empty.
		pushBias := 6
		if step > 120000 {
			pushBias = 3
		}
		switch op := rng.Intn(10); {
		case op < pushBias:
			if len(st.free) == 0 {
				st.grow(1)
			}
			id := st.free[len(st.free)-1]
			st.free = st.free[:len(st.free)-1]
			qs.push(u, id)
			model[u] = append(model[u], id)
			pushes++
		case op < 9:
			if len(model[u]) == 0 {
				continue
			}
			id := qs.front(u)
			qs.pop(u)
			if id != model[u][0] {
				t.Fatalf("step %d: unit %d popped id %d, model %d", step, u, id, model[u][0])
			}
			model[u] = model[u][1:]
			st.free = append(st.free, id)
		default:
			if got, want := qs.len(u), len(model[u]); got != want {
				t.Fatalf("step %d: unit %d len %d, model %d", step, u, got, want)
			}
		}
		if got, want := qs.empty(u), len(model[u]) == 0; got != want {
			t.Fatalf("step %d: unit %d empty %v, model %v", step, u, got, want)
		}
		if len(model[u]) > 0 && qs.front(u) != model[u][0] {
			t.Fatalf("step %d: unit %d front %d, model %d", step, u, qs.front(u), model[u][0])
		}
	}
	total := 0
	for u := range model {
		total += len(model[u])
		if got := qs.len(int32(u)); got != len(model[u]) {
			t.Fatalf("unit %d len %d, model %d", u, got, len(model[u]))
		}
	}
	if got := qs.total(); got != total {
		t.Fatalf("total %d, model %d", got, total)
	}
	if st.cap() <= 256 || pushes <= st.cap() {
		t.Fatalf("slab cap %d after %d pushes: the model never grew the slab or recycled ids", st.cap(), pushes)
	}
}
