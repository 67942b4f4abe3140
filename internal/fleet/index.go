package fleet

import "math/bits"

// The placement index. Every placement tier asks for "the lowest-index
// machine with property P", "the least-recently-freed machine with P",
// or "the shortest queue among machines with P", for a handful of fixed
// predicates P over a machine's state. Scanning all machines with a
// predicate per arrival made the event loop O(machines) per placement;
// the index keeps each predicate as a bitset (one bit per machine, 64
// per word) and the two LRU predicates additionally as min-heaps, so a
// tier is a first-set-bit scan over a few hundred words, a heap peek,
// or a walk over only the set bits of its candidate words.
//
// Invariant: after every mutation of a field a predicate reads — fgReq,
// queue length, bgApp, down, draining, used, latencyUsed, lastFree, or a
// hysteresis hold — the mutating code calls sim.reindex for that
// machine before the next selection. Hold expiry is the one
// time-driven change; sim.releaseHolds applies it at the top of every
// selection, which is exact because selections see non-decreasing
// times. Ties resolve to the lowest index everywhere, as the linear
// scans did, so every choice is identical to theirs.

// Bitset predicates. "avail" is in service (not down, not draining) and
// not held by hysteresis; "free" is latency slot idle with an empty
// queue.
const (
	setUp        = iota // in service
	setAvail            // in service and not held
	setAvailNoBg        // avail, no batch resident
	setFree             // avail and free
	setIdle             // avail, free, no batch resident (batch-eligible)
	setIdleUsed         // idle and powered before
	setColoc            // avail, free, batch resident present
	setQEmpty           // empty queue (any service state)
	setHeld             // hysteresis hold not yet released
	numSets
)

// index is one episode's placement index over n machines.
type index struct {
	words int
	bits  []uint64 // numSets bitsets of words each, set k at [k*words:]
	// lastFree is when each machine last became fully idle (-1 =
	// never): the LRU heaps' key. Only placement reads it, so it lives
	// here rather than in machState.
	lastFree []float64
	lruIdle  lruHeap // setIdle
	lruFresh lruHeap // setIdle machines that never served a request
	held     []int   // machines with setHeld, in hold order
}

// reset sizes the index for n machines in their initial state: in
// service, unheld, idle, never used, lastFree -1. It reuses the
// backing arrays when they are large enough.
func (x *index) reset(n int) {
	x.words = (n + 63) / 64
	x.bits = grow(x.bits, numSets*x.words)
	clear(x.bits)
	for _, k := range []int{setUp, setAvail, setAvailNoBg, setFree, setIdle, setQEmpty} {
		ws := x.set(k)
		for i := range ws {
			ws[i] = ^uint64(0)
		}
		if r := n % 64; r != 0 {
			ws[len(ws)-1] = 1<<r - 1
		}
	}
	x.lastFree = grow(x.lastFree, n)
	for i := range x.lastFree {
		x.lastFree[i] = -1
	}
	x.lruIdle.reset(n, x.lastFree)
	x.lruFresh.reset(n, x.lastFree)
	x.held = x.held[:0]
}

// grow returns s resliced to n, reallocating only when it is too small.
func grow[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}

func (x *index) set(k int) []uint64 { return x.bits[k*x.words : (k+1)*x.words] }

func (x *index) has(k, mi int) bool { return x.bits[k*x.words+mi>>6]>>(mi&63)&1 != 0 }

func (x *index) put(k, mi int, v bool) {
	w := &x.bits[k*x.words+mi>>6]
	if v {
		*w |= 1 << (mi & 63)
	} else {
		*w &^= 1 << (mi & 63)
	}
}

// limitMask masks word w to the machines below limit (the loop bound
// w<<6 < limit guarantees at least one).
func limitMask(w, limit int) uint64 {
	if rem := limit - w<<6; rem < 64 {
		return 1<<rem - 1
	}
	return ^uint64(0)
}

// firstAnd returns the lowest machine below limit in both set a and
// set b, or -1.
func (x *index) firstAnd(a, b, limit int) int {
	wa, wb := x.set(a), x.set(b)
	for w := 0; w<<6 < limit; w++ {
		if v := wa[w] & wb[w] & limitMask(w, limit); v != 0 {
			return w<<6 | bits.TrailingZeros64(v)
		}
	}
	return -1
}

// first returns the lowest machine below limit in set k, or -1.
func (x *index) first(k, limit int) int { return x.firstAnd(k, k, limit) }

// reindex recomputes machine mi's predicates from its state.
func (s *sim) reindex(mi int) {
	m := s.mach(mi)
	x := &s.idx
	up := !m.down && !m.draining
	avail := up && !x.has(setHeld, mi)
	qEmpty := m.qLen == 0
	free := avail && m.fgReq < 0 && qEmpty
	noBg := m.bgApp == ""
	idle := free && noBg
	x.put(setUp, mi, up)
	x.put(setAvail, mi, avail)
	x.put(setAvailNoBg, mi, avail && noBg)
	x.put(setFree, mi, free)
	x.put(setIdle, mi, idle)
	x.put(setIdleUsed, mi, idle && m.used)
	x.put(setColoc, mi, free && !noBg)
	x.put(setQEmpty, mi, qEmpty)
	x.lruIdle.update(mi, idle)
	x.lruFresh.update(mi, idle && !m.latencyUsed)
}

// hold marks machine mi held until its holdUntil (a no-op when that is
// not after now). The caller reindexes mi.
func (s *sim) hold(mi int, now float64) {
	x := &s.idx
	if s.mach(mi).holdUntil <= now || x.has(setHeld, mi) {
		return
	}
	x.put(setHeld, mi, true)
	x.held = append(x.held, mi)
}

// releaseHolds returns every machine whose hold has expired by now to
// the available sets.
func (s *sim) releaseHolds(now float64) {
	x := &s.idx
	keep := x.held[:0]
	for _, mi := range x.held {
		if s.mach(mi).holdUntil > now {
			keep = append(keep, mi)
			continue
		}
		x.put(setHeld, mi, false)
		s.reindex(mi)
	}
	x.held = keep
}

// shortestQueue returns the machine below limit in set k with the
// fewest waiting requests, ties to the lowest index; -1 when k is
// empty. ok, when non-nil, further filters the candidates. An
// empty-queue candidate is already minimal, so the set-bit walk runs
// only when every candidate has a backlog.
func (s *sim) shortestQueue(k, limit int, ok func(mi int) bool) int {
	x := &s.idx
	if ok == nil {
		if mi := x.firstAnd(k, setQEmpty, limit); mi >= 0 {
			return mi
		}
	}
	best, bestLen := -1, 0
	ws := x.set(k)
	for w := 0; w<<6 < limit; w++ {
		for v := ws[w] & limitMask(w, limit); v != 0; v &= v - 1 {
			mi := w<<6 | bits.TrailingZeros64(v)
			if ok != nil && !ok(mi) {
				continue
			}
			if l := int(s.mach(mi).qLen); best < 0 || l < bestLen {
				if l == 0 {
					return mi
				}
				best, bestLen = mi, l
			}
		}
	}
	return best
}

// lruHeap is an indexed binary min-heap of machines keyed by
// (lastFree, index) — a strict total order, so the minimum is the
// machine the linear LRU scan picked: idle longest, never-used (-1)
// machines first, ties to the lowest index.
type lruHeap struct {
	h   []int32   // heap-ordered machine indices
	pos []int32   // machine -> position in h, -1 when absent
	key []float64 // the index's lastFree
}

// reset fills the heap with all n machines. Their keys are all -1, so
// index order is already heap order.
func (h *lruHeap) reset(n int, key []float64) {
	h.key = key
	h.h = grow(h.h, n)
	h.pos = grow(h.pos, n)
	for i := range n {
		h.h[i], h.pos[i] = int32(i), int32(i)
	}
}

// min returns the heap's minimum machine, or -1 when empty.
func (h *lruHeap) min() int {
	if len(h.h) == 0 {
		return -1
	}
	return int(h.h[0])
}

func (h *lruHeap) less(a, b int32) bool {
	ka, kb := h.key[a], h.key[b]
	return ka < kb || ka == kb && a < b
}

// update makes mi's membership match member and restores heap order
// around it (its key may have changed since the last update).
func (h *lruHeap) update(mi int, member bool) {
	p := int(h.pos[mi])
	switch {
	case member && p < 0:
		h.h = append(h.h, int32(mi))
		p = len(h.h) - 1
		h.pos[mi] = int32(p)
		h.up(p)
	case !member && p >= 0:
		last := len(h.h) - 1
		h.swap(p, last)
		h.h = h.h[:last]
		h.pos[mi] = -1
		if p < last {
			h.fix(p)
		}
	case member:
		h.fix(p)
	}
}

func (h *lruHeap) swap(i, j int) {
	h.h[i], h.h[j] = h.h[j], h.h[i]
	h.pos[h.h[i]], h.pos[h.h[j]] = int32(i), int32(j)
}

func (h *lruHeap) fix(p int) {
	if !h.up(p) {
		h.down(p)
	}
}

// up sifts position p toward the root and reports whether it moved.
func (h *lruHeap) up(p int) bool {
	moved := false
	for p > 0 {
		q := (p - 1) / 2
		if !h.less(h.h[p], h.h[q]) {
			break
		}
		h.swap(p, q)
		p, moved = q, true
	}
	return moved
}

func (h *lruHeap) down(p int) {
	n := len(h.h)
	for {
		c := 2*p + 1
		if c >= n {
			return
		}
		if r := c + 1; r < n && h.less(h.h[r], h.h[c]) {
			c = r
		}
		if !h.less(h.h[c], h.h[p]) {
			return
		}
		h.swap(p, c)
		p = c
	}
}
