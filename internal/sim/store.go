package sim

import "fmt"

// Packet storage. A packet is a recycled int32 id into one slab of
// 64-byte records: everything a forward attempt reads — the resolved
// channel path, the hop cursor, the lane, the destination and the
// generation cycle — sits in one cache line, and so does the link that
// threads the packet through its queue. Queues and mail rings move 4–8
// bytes per packet. Queue state is two int32s per unit (queueSet), so
// neither the slab nor the queue ends contain a pointer and the collector
// never scans them. See DESIGN.md §10.
//
// Id lifecycle (the determinism contract):
//
//   - The global free stack is touched only in the serial sections of a
//     cycle: refillIDs (before the routing phase) moves ids into
//     per-shard allocation caches, and commit drains the per-shard freed
//     journals back in fixed shard order.
//   - The routing phase allocates from its shard's cache only; the
//     arbitration phase frees into its shard's journal only. A freed id
//     is therefore never reallocated in the same cycle, and every
//     id movement is a pure function of the (worker-count-independent)
//     serial schedule.
//   - Results never depend on id values — ids are array indices, and all
//     ordering comes from the queues — but keeping the allocator
//     deterministic means memory layout (and thus any accidental
//     dependence) cannot vary with the worker count either.

// pktStride is the per-packet channel-id capacity: one slot per link of
// the longest representable path.
const pktStride = MaxPathNodes - 1

// pktRec is one packet: exactly 64 bytes, one cache line. Whether the
// packet counts toward the measured latency is derived from gen at
// delivery (Engine.measured), so it needs no field.
type pktRec struct {
	gen     int64            // generation cycle (latency base)
	chans   [pktStride]int32 // channel id of hop i
	next    int32            // next id in the same queue, -1 at the tail
	dstEP   int32            // destination endpoint
	nHops   int8             // channels on the path; 0 = source == destination router
	hop     int8             // channels already traversed; ejects at hop == nHops
	lane    int8             // routing lane: 0 = minimal band, 1.. = tree lanes (multipath only)
	retries uint8            // source retries already consumed (faults only)
}

// pktStore is the packet slab: rec indexed by packet id, plus the source
// endpoint in a side array because only the fault paths read it.
type pktStore struct {
	rec   []pktRec
	srcEP []int32 // source endpoint: the re-injection point under faults

	// free is the global id stack. Serial sections only: refillIDs pops,
	// commit and the fault paths push. Capacity always equals the slab
	// capacity, so pushes never reallocate.
	free []int32
}

// cap returns the slab capacity (ids ever created).
func (st *pktStore) cap() int { return len(st.rec) }

// grow extends the slab so at least n more ids are free, growing
// geometrically to amortize. Serial sections only.
func (st *pktStore) grow(n int) {
	if n < st.cap()/2 {
		n = st.cap() / 2
	}
	if n < 256 {
		n = 256
	}
	old := st.cap()
	st.rec = append(st.rec, make([]pktRec, n)...)
	st.srcEP = append(st.srcEP, make([]int32, n)...)
	free := make([]int32, len(st.free), st.cap())
	copy(free, st.free)
	// Hand out low ids first (descending push, LIFO pop) to keep the
	// working set compact.
	for id := old + n - 1; id >= old; id-- {
		free = append(free, int32(id))
	}
	st.free = free
}

// queueSet is every packet FIFO of the engine (the channel/VC input
// buffers and the endpoint injection queues), threaded intrusively
// through the slab: a unit stores its head and tail id, each queued
// packet the id behind it. push, pop, front and empty are O(1) and
// allocation-free; len walks the list and is for end-of-run accounting
// only. A packet is in at most one queue, so one link per record serves
// all of them, and a queue's links are written only by the shard that
// owns the queue.
type queueSet struct {
	ends []qEnds
	st   *pktStore
}

// qEnds is one FIFO's head and tail id, both -1 when empty.
type qEnds struct{ head, tail int32 }

func newQueueSet(units int, st *pktStore) queueSet {
	ends := make([]qEnds, units)
	for i := range ends {
		ends[i] = qEnds{-1, -1}
	}
	return queueSet{ends: ends, st: st}
}

func (qs *queueSet) empty(u int32) bool  { return qs.ends[u].head < 0 }
func (qs *queueSet) front(u int32) int32 { return qs.ends[u].head }

func (qs *queueSet) push(u, id int32) {
	q := &qs.ends[u]
	qs.st.rec[id].next = -1
	if q.tail >= 0 {
		qs.st.rec[q.tail].next = id
	} else {
		q.head = id
	}
	q.tail = id
}

// pop removes the head of a non-empty queue.
func (qs *queueSet) pop(u int32) {
	q := &qs.ends[u]
	if q.head == q.tail {
		*q = qEnds{-1, -1}
		return
	}
	q.head = qs.st.rec[q.head].next
}

// len counts the queued packets by walking the list.
func (qs *queueSet) len(u int32) int {
	n := 0
	for id := qs.ends[u].head; id >= 0; id = qs.st.rec[id].next {
		n++
	}
	return n
}

// total is the number of packets queued over all units.
func (qs *queueSet) total() int {
	n := 0
	for u := range qs.ends {
		n += qs.len(int32(u))
	}
	return n
}

// slabCheck verifies the packet-id accounting invariant: every id ever
// created is in exactly one place — the global free stack, a shard's
// allocation cache or freed journal, a queue, or a mail ring. Violations
// mean a leak (an id lost to the allocator forever) or a double-spend
// (one id live in two queues, i.e. two packets aliasing one slab slot).
// Queues are walked link by link, and each must end at its recorded
// tail. Called by the property and fuzz tests after runs, including
// terminated-early fault runs where stranded ids legitimately stay in
// queues.
func (e *Engine) slabCheck() error {
	owner := make([]string, e.pkts.cap())
	claim := func(id int32, where string) error {
		if id < 0 || int(id) >= len(owner) {
			return fmt.Errorf("sim: packet id %d outside slab [0,%d) in %s", id, len(owner), where)
		}
		if owner[id] != "" {
			return fmt.Errorf("sim: packet id %d in both %s and %s", id, owner[id], where)
		}
		owner[id] = where
		return nil
	}
	for _, id := range e.pkts.free {
		if err := claim(id, "free stack"); err != nil {
			return err
		}
	}
	for s, sh := range e.shards {
		for _, id := range sh.freeIDs {
			if err := claim(id, fmt.Sprintf("shard %d cache", s)); err != nil {
				return err
			}
		}
		for _, id := range sh.freed {
			if err := claim(id, fmt.Sprintf("shard %d freed journal", s)); err != nil {
				return err
			}
		}
	}
	for u, q := range e.queues.ends {
		if (q.head < 0) != (q.tail < 0) {
			return fmt.Errorf("sim: queue %d has head %d but tail %d", u, q.head, q.tail)
		}
		last := int32(-1)
		for id := q.head; id >= 0; id = e.pkts.rec[id].next {
			// claim range-checks id before the link is followed, and a
			// cycle in the list re-claims an id and fails.
			if err := claim(id, fmt.Sprintf("queue %d", u)); err != nil {
				return err
			}
			last = id
		}
		if last != q.tail {
			return fmt.Errorf("sim: queue %d ends at id %d but its tail is %d", u, last, q.tail)
		}
	}
	for i := range e.mail {
		for _, a := range e.mail[i] {
			if err := claim(a.id, fmt.Sprintf("mail box %d", i)); err != nil {
				return err
			}
		}
	}
	for id, w := range owner {
		if w == "" {
			return fmt.Errorf("sim: packet id %d leaked (in no free list, queue or mail ring)", id)
		}
	}
	return nil
}

// bitset is a dense uint64 bit vector: the word-at-a-time replacement
// for []bool unit flags. Units are numbered router-major with each
// shard's block padded to a 64-bit boundary (see NewEngine), so two
// shards never write the same word concurrently — the same ownership
// argument that makes the byte-per-unit version race-free, kept at 8×
// the density.
type bitset []uint64

func newBitset(n int) bitset { return make(bitset, (n+63)/64) }

func (b bitset) get(i int32) bool { return b[i>>6]&(1<<(uint32(i)&63)) != 0 }
func (b bitset) set(i int32)      { b[i>>6] |= 1 << (uint32(i) & 63) }
func (b bitset) clear(i int32)    { b[i>>6] &^= 1 << (uint32(i) & 63) }
