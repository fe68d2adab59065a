package simnet

// Indexed election for the host-parallel scheduler.
//
// The conservative scheduler admits shared-state events in global
// (virtual time, rank) order. Finding the minimum with a linear scan
// over every rank per election is O(P) per event, which dominates once
// P reaches the hundreds, so the election is served by a lazy min-heap
// of election entries:
//
//   - Every transition that makes a rank electable (or moves its key
//     while electable) pushes a fresh entry. Old entries are not
//     removed in place.
//   - The heap top is validated against the rank's *current* state
//     before use; a stale entry (the rank moved on, was admitted, or
//     blocked) is popped and discarded.
//
// Laziness is sound because election keys never decrease: a rank's key
// is its virtual clock, and virtual clocks are monotone. A stale entry therefore always sorts at or
// before the rank's live entry, so discarding stale tops can never
// skip past a smaller live candidate. Each event pushes O(1) entries
// and each election pops the entries it invalidated, so the heap stays
// O(live candidates) and admission costs O(log P).

type electEntry struct {
	key  float64
	rank int32
}

// electPQ is a hand-rolled binary min-heap over (key, rank).
// container/heap is avoided: its interface indirection allocates and
// the push/pop pair sits on the admission fast path.
type electPQ []electEntry

func electLess(a, b electEntry) bool {
	if a.key != b.key {
		return a.key < b.key
	}
	return a.rank < b.rank
}

func (pq *electPQ) push(e electEntry) {
	h := append(*pq, e)
	i := len(h) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !electLess(h[i], h[parent]) {
			break
		}
		h[i], h[parent] = h[parent], h[i]
		i = parent
	}
	*pq = h
}

func (pq *electPQ) pop() electEntry {
	h := *pq
	top := h[0]
	last := len(h) - 1
	h[0] = h[last]
	h = h[:last]
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		small := i
		if l < len(h) && electLess(h[l], h[small]) {
			small = l
		}
		if r < len(h) && electLess(h[r], h[small]) {
			small = r
		}
		if small == i {
			break
		}
		h[i], h[small] = h[small], h[i]
		i = small
	}
	*pq = h
	return top
}

// electKeyOf returns rank n's current election candidacy: its frozen
// key for in-flight, arrived and woken ranks, or ok=false when the rank
// is not electable at all. This is exactly the serial scheduler's
// candidate set. Caller holds par.mu.
func electKeyOf(n *Node) (electEntry, bool) {
	switch n.status {
	case stInFlight, stArrived:
		return electEntry{key: n.key, rank: int32(n.Rank)}, true
	case stParked:
		if n.blockKind == blockNone {
			return electEntry{key: n.key, rank: int32(n.Rank)}, true
		}
	}
	return electEntry{}, false
}

// pushElect publishes rank n's current candidacy to the election heap;
// a no-op when the rank is not electable. Call after any transition
// that creates or re-keys a candidacy (release, wake, launch). Caller
// holds par.mu.
func (c *cluster) pushElect(n *Node) {
	e, ok := electKeyOf(n)
	if !ok {
		return
	}
	c.par.pq.push(e)
}

// minElect returns the smallest live election entry without removing
// it, popping and discarding stale tops along the way; ok=false means
// no rank is electable. Caller holds par.mu.
func (c *cluster) minElect() (electEntry, bool) {
	pq := &c.par.pq
	for len(*pq) > 0 {
		e := (*pq)[0]
		cur, ok := electKeyOf(c.nodes[e.rank])
		if ok && cur == e {
			return e, true
		}
		pq.pop()
	}
	return electEntry{}, false
}

// rebuildElect repopulates the heap from a full state scan and reports
// whether any candidate exists. It is the O(P) safety net behind the
// lazy heap: an empty heap normally means deadlock, and rebuilding
// first guarantees a missed push can degrade only performance, never
// correctness. Caller holds par.mu.
func (c *cluster) rebuildElect() bool {
	any := false
	for _, n := range c.nodes {
		if e, ok := electKeyOf(n); ok {
			c.par.pq.push(e)
			any = true
		}
	}
	return any
}
