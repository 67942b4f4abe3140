package fleet

import (
	"math"
	"math/bits"
	"sync"

	"repro/internal/loadgen"
)

// The event loop. Each machine has two halves: a latency slot serving
// at most one request (FIFO queue behind it) and a batch slot hosting
// at most one resident backlog item. Requests are dispatched at
// arrival by the consolidation policy; their service time is fixed at
// dispatch from the oracle (alone, or co-located under the fleet's
// partition mode). Batch residents accrue iterations at the alone rate
// when the latency slot is empty and at the co-located rate while a
// request runs beside them. Everything downstream of the oracle is
// plain serial float arithmetic, so a fleet run is byte-identical at
// any engine parallelism.

const (
	evFgDone  = iota // a request completed (machine index)
	evBgDone         // a batch resident finished its item (machine index)
	evArrival        // a request arrived (trace index)
	evFleet          // a timeline event fired (Def.Events index)
	evWake           // hysteresis hold expired (machine index); placement retry only
)

type event struct {
	t    float64
	kind int
	idx  int
	ver  int // fgDone/bgDone staleness check
}

// eventHeap is a hand-rolled binary min-heap of events. container/heap
// would box every Push/Pop operand in an interface — one heap
// allocation per event on the loop's hottest edge — so the sift
// routines are typed and the loop runs allocation-free (pinned by
// TestSimRunAllocationFree). Determinism does not depend on the heap's
// internal arrangement: eventLess is a strict total order (no two live
// events compare equal — arrival/timeline indices are distinct, and
// completion versions bump per schedule), so every pop returns the
// unique minimum whichever implementation manages the array.
type eventHeap []event

// eventLess orders events by time, then kind, then index, then
// version — the deterministic tie-break every golden depends on.
func eventLess(a, b event) bool {
	if a.t != b.t {
		return a.t < b.t
	}
	if a.kind != b.kind {
		return a.kind < b.kind
	}
	if a.idx != b.idx {
		return a.idx < b.idx
	}
	return a.ver < b.ver
}

func (h *eventHeap) push(e event) {
	a := append(*h, e)
	i := len(a) - 1
	for i > 0 {
		p := (i - 1) / 2
		if !eventLess(a[i], a[p]) {
			break
		}
		a[i], a[p] = a[p], a[i]
		i = p
	}
	*h = a
}

func (h *eventHeap) pop() event {
	a := *h
	top := a[0]
	n := len(a) - 1
	a[0] = a[n]
	a = a[:n]
	i := 0
	for {
		c := 2*i + 1
		if c >= n {
			break
		}
		if r := c + 1; r < n && eventLess(a[r], a[c]) {
			c = r
		}
		if !eventLess(a[c], a[i]) {
			break
		}
		a[i], a[c] = a[c], a[i]
		i = c
	}
	*h = a
	return top
}

func (s *sim) push(t float64, kind, idx, ver int) { s.events.push(event{t, kind, idx, ver}) }

// machState is one machine of the pool. Large fleets hold thousands
// of these per episode, so the layout is kept compact: the active
// request's application is read through fgReq, the request queue is a
// FIFO threaded through reqState.next rather than a slice (queueing
// never allocates), indices and versions are int32, the flags share
// one word, and the LRU key (lastFree) lives only in the placement
// index.
type machState struct {
	bgApp string // resident batch item's application ("" = none)

	fgReq int32 // active request index (-1 = latency slot idle)
	qHead int32 // first waiting request (valid while qLen > 0)
	qTail int32 // last waiting request
	qLen  int32 // waiting requests
	fgVer int32 // bumps per dispatch/eviction; voids stale fgDone events
	bgVer int32

	bgIters     float64 // the resident's iteration count at placement (a failure restarts it)
	bgRemaining float64 // iterations left
	bgRate      float64 // iterations per second at current occupancy

	holdUntil float64 // hysteresis: skipped by placement until then

	accT    float64 // lazy-accounting timestamp
	socketJ float64
	wallJ   float64
	busySec float64

	down        bool // out of service (failure, or a completed drain)
	draining    bool // powering down once the active request completes
	used        bool
	latencyUsed bool
}

// Machine state lives in fixed-size pages materialized on first touch.
// An untouched machine is still in its initial state, so an episode's
// memory follows the machines it uses rather than the pool size:
// spread-idle on the 10,000-machine example touches ~2,300 machines,
// pack-partition ~80. Pages never move, so a *machState stays valid
// while other machines are touched.
const (
	pageShift = 8
	pageSize  = 1 << pageShift
)

type machPage [pageSize]machState

// resetMachines sizes the sim for n untouched machines, keeping the
// pages of earlier episodes for reuse, and resets the placement index.
func (s *sim) resetMachines(n int) {
	for _, p := range s.pages {
		if p != nil {
			s.spare = append(s.spare, p)
		}
	}
	s.n = n
	s.pages = grow(s.pages, (n+pageSize-1)>>pageShift)
	clear(s.pages)
	s.idx.reset(n)
}

// mach returns machine mi's state, materializing its page in the
// initial state on first touch.
func (s *sim) mach(mi int) *machState {
	p := s.pages[mi>>pageShift]
	if p == nil {
		if k := len(s.spare) - 1; k >= 0 {
			p, s.spare = s.spare[k], s.spare[:k]
		} else {
			p = new(machPage)
		}
		for i := range p {
			p[i] = machState{fgReq: -1}
		}
		s.pages[mi>>pageShift] = p
	}
	return &p[mi&(pageSize-1)]
}

// touched reports whether machine mi's page was ever materialized; a
// machine outside every touched page never left its initial state.
func (s *sim) touched(mi int) bool { return s.pages[mi>>pageShift] != nil }

// reqState is one request's progress; its arrival is arrivals[i].
type reqState struct {
	finish float64
	group  int   // recovery group awaiting this request's re-placement (-1 = none)
	next   int32 // next waiting request in its machine's queue (-1 = tail)
	done   bool
}

// requeuedItem is an evicted batch item awaiting re-placement.
type requeuedItem struct {
	app        string
	iterations float64
	group      int
}

// recGroup tracks one machine event's evictees: when the last one is
// re-placed, the group's time-to-recover is the gap since the event.
type recGroup struct {
	at          float64
	outstanding int
}

// sim is one policy's run over the shared trace.
type sim struct {
	def    *Def
	o      *oracle
	policy PolicyName

	arrivals []loadgen.Arrival // the shared trace; reqs[i] tracks arrivals[i]
	n        int               // machines in the pool
	pages    []*machPage       // machine state by page; nil until first touched
	spare    []*machPage       // pages recycled from earlier episodes
	events   eventHeap
	reqs     []reqState
	backlog  []loadgen.BatchItem
	nextItem int // next backlog item to place
	resident int // batch residents currently placed
	maxBatch int // fleet-wide batch-width cap
	prefixK  int // util-target's static machine prefix
	idx      index

	// Churn state (all zero on an event-free run).
	timeline []Event // def.Events; heap evFleet events index it
	// requeued is the FIFO of evicted batch items awaiting re-placement,
	// consumed from reqHead instead of re-slicing so one buffer serves
	// the whole run; the slice resets to its start whenever it drains.
	requeued    []requeuedItem
	reqHead     int
	pendingReqs []int // evicted/arrived requests with no live machine (rare)
	pendScratch []int // swap buffer so draining pendingReqs never re-allocates
	totalItems  int   // backlog items that must drain (arrivals - cancels)
	itemSeq     int   // next global item index for event arrivals
	groups      []recGroup
	evicted     int
	lostJobs    int
	migrated    int
	pendingRepl int
	peakRepl    int
	recoverMax  float64

	drained  int
	drainT   float64
	lastT    float64
	rejects  int
	coloc    int
	reallocs int
}

// simPool recycles episode buffers — machine pages, event heap,
// request states, backlog copy, churn queues, and placement index — so
// a fleet of 10,000 machines does not allocate megabytes per policy
// episode. An episode owns its sim exclusively from newSim until
// release, so concurrent episodes never share a buffer.
var simPool = sync.Pool{New: func() any { return new(sim) }}

func newSim(def *Def, o *oracle, policy PolicyName, arrivals []loadgen.Arrival, backlog []loadgen.BatchItem) *sim {
	s := simPool.Get().(*sim)
	// Size the heap for the arrivals pushed up front plus the timeline.
	// Completions scheduled beyond the slack grow it once; the grown
	// array returns to the pool with the sim, so steady-state episodes
	// never grow it.
	heapCap := len(arrivals) + len(def.Events) + 16
	events := s.events[:0]
	if cap(events) < heapCap {
		events = make(eventHeap, 0, heapCap)
	}
	*s = sim{
		def: def, o: o, policy: policy, arrivals: arrivals,
		pages:  s.pages,
		spare:  s.spare,
		events: events,
		reqs:   grow(s.reqs, len(arrivals)),
		// Each policy's sim owns its backlog: timeline events append to
		// and cancel from it, and the trace is shared across policies.
		backlog:     append(s.backlog[:0], backlog...),
		maxBatch:    def.batchWidth(),
		idx:         s.idx,
		requeued:    s.requeued[:0],
		pendingReqs: s.pendingReqs[:0],
		pendScratch: s.pendScratch[:0],
		groups:      s.groups[:0],
	}
	s.resetMachines(def.Machines)
	for i, a := range arrivals {
		s.reqs[i] = reqState{group: -1}
		s.push(a.AtSeconds, evArrival, i, 0)
	}
	s.timeline = def.Events
	s.totalItems = len(backlog)
	s.itemSeq = len(backlog)
	for i := range s.timeline {
		// load-scale was consumed by trace generation; machine and
		// batch events fire inside the loop, after arrivals at equal t.
		if s.timeline[i].Kind != EvLoadScale {
			s.push(s.timeline[i].At, evFleet, i, 0)
		}
	}
	// util-target provisions a static machine prefix sized so the
	// latency load alone fills it to the target: K = ceil(erlangs/U).
	erlangs := 0.0
	for _, c := range def.Arrivals {
		erlangs += c.Rate * o.alone[c.App].Seconds
	}
	s.prefixK = int(math.Ceil(erlangs / def.utilTarget()))
	if s.prefixK < 1 {
		s.prefixK = 1
	}
	if s.prefixK > def.Machines {
		s.prefixK = def.Machines
	}
	return s
}

// release returns the sim's buffers to the pool; s must not be used
// afterwards.
func (s *sim) release() {
	s.def, s.o, s.arrivals, s.timeline = nil, nil, nil, nil
	simPool.Put(s)
}

// account integrates energy and busy time on machine mi up to now and
// advances the batch resident's progress at the current rate.
func (s *sim) account(mi int, now float64) {
	m := s.mach(mi)
	dt := now - m.accT
	if dt <= 0 {
		m.accT = now
		return
	}
	fgApp := ""
	if m.fgReq >= 0 {
		fgApp = s.arrivals[m.fgReq].App
	}
	sw, ww := s.o.powerState(fgApp, m.bgApp)
	if m.down {
		sw, ww = 0, 0 // powered off: no idle draw while out of service
	}
	m.socketJ += sw * dt
	m.wallJ += ww * dt
	if m.fgReq >= 0 || m.bgApp != "" {
		m.busySec += dt
	}
	if m.bgApp != "" {
		m.bgRemaining -= m.bgRate * dt
		if m.bgRemaining < 0 {
			m.bgRemaining = 0
		}
	}
	m.accT = now
}

// setBgRate switches the resident's accrual rate (after account) and
// reschedules its completion event.
func (s *sim) setBgRate(mi int, rate, now float64) {
	m := s.mach(mi)
	m.bgRate = rate
	m.bgVer++
	if rate > 0 {
		s.push(now+m.bgRemaining/rate, evBgDone, mi, int(m.bgVer))
	}
}

// dispatch starts request ri on machine mi at time now.
func (s *sim) dispatch(ri, mi int, now float64) {
	s.account(mi, now)
	m := s.mach(mi)
	rq := &s.reqs[ri]
	if rq.group >= 0 {
		// An evicted request starting service is recovered.
		s.resolveReplace(rq.group, now)
		rq.group = -1
	}
	app := s.arrivals[ri].App
	m.fgReq = int32(ri)
	m.fgVer++
	m.used, m.latencyUsed = true, true
	s.reindex(mi)

	service := s.o.alone[app].Seconds
	if m.bgApp != "" {
		p := s.o.pair[pairKey(app, m.bgApp)]
		service = p.FgSeconds
		s.coloc++
		s.reallocs += p.Reallocs
		s.setBgRate(mi, p.BgRate, now)
	}
	s.push(now+service, evFgDone, mi, int(m.fgVer))
}

func (s *sim) onFgDone(mi, ver int, now float64) {
	m := s.mach(mi)
	if ver != int(m.fgVer) || m.fgReq < 0 {
		return // the request was evicted by a failure; this completion is void
	}
	s.account(mi, now)
	r := &s.reqs[m.fgReq]
	r.finish, r.done = now, true
	m.fgReq = -1
	if m.draining {
		// The deferred maintenance power-down: the queue and resident
		// were migrated at the drain event, so the machine is empty.
		m.draining = false
		m.down = true
		s.reindex(mi)
		return
	}
	if m.bgApp != "" {
		s.setBgRate(mi, s.o.aloneRate(m.bgApp), now)
	} else {
		s.idx.lastFree[mi] = now
	}
	if m.qLen > 0 {
		ri := int(m.qHead)
		m.qHead = s.reqs[ri].next
		m.qLen--
		s.dispatch(ri, mi, now) // reindexes mi
		return
	}
	s.reindex(mi)
}

func (s *sim) onBgDone(mi, ver int, now float64) {
	m := s.mach(mi)
	if ver != int(m.bgVer) {
		return // rate changed since this event was scheduled
	}
	s.account(mi, now)
	m.bgApp = ""
	m.bgRemaining = 0
	s.resident--
	s.drained++
	s.drainT = now
	if m.fgReq < 0 {
		s.idx.lastFree[mi] = now
	}
	s.reindex(mi)
}

func (s *sim) onArrival(ri int, now float64) {
	s.placeRequest(ri, now)
}

// placeRequest routes a request — arriving or evicted — through the
// consolidation policy. With no live machine at all (every machine
// down or draining, only possible mid-timeline) it pends until the
// next machine-up.
func (s *sim) placeRequest(ri int, now float64) {
	mi, rejected := s.selectMachine(s.arrivals[ri].App, now)
	if rejected {
		s.rejects++
	}
	if mi < 0 {
		s.pendingReqs = append(s.pendingReqs, ri)
		return
	}
	m := s.mach(mi)
	if m.fgReq < 0 {
		s.dispatch(ri, mi, now)
	} else {
		s.reqs[ri].next = -1
		if m.qLen == 0 {
			m.qHead = int32(ri)
		} else {
			s.reqs[m.qTail].next = int32(ri)
		}
		m.qTail = int32(ri)
		m.qLen++
		s.reindex(mi)
	}
}

// selectMachine applies the consolidation policy to an arriving
// request and returns the chosen machine (and, for pack-partition,
// whether any co-location was rejected by the partition check).
// -1 means no machine is in service at all. Every tier reads the
// placement index; "available" is in service (not down, not draining)
// with any hysteresis hold expired — the predicate every preferred
// tier uses, held machines being a last resort only. On an event-free
// run every machine stays available, so every tier behaves exactly as
// it did without a timeline.
func (s *sim) selectMachine(app string, now float64) (int, bool) {
	s.releaseHolds(now)
	x := &s.idx
	n := s.n
	switch s.policy {
	case SpreadIdle:
		// Fully idle machine, least-recently-used first; then the
		// shortest queue among resident-free machines. Machines hosting
		// a batch resident are avoided entirely — spread-idle is the
		// never-co-locate baseline — unless every machine has one
		// (batch_width >= machines, an operator choice).
		if mi := x.lruIdle.min(); mi >= 0 {
			return mi, false
		}
		if mi := s.shortestQueue(setAvailNoBg, n, nil); mi >= 0 {
			return mi, false
		}
		if mi := s.shortestQueue(setAvail, n, nil); mi >= 0 {
			return mi, false
		}
		return s.shortestQueue(setUp, n, nil), false

	case PackPartition:
		// Prefer co-locating with a resident that passes the partition
		// check; then reuse an already-powered machine; then open a
		// fresh one; then the shortest queue among machines whose
		// resident (if any) passes the check, so the limit is honored
		// when the queued request eventually dispatches. Only a fleet
		// where every machine hosts a failing resident falls through to
		// an unchecked queue. An arrival counts as rejected only when
		// the check actually spilled it — it skipped a failing resident
		// and no passing resident took it.
		limit := s.def.slowdownLimit()
		compatible := func(mi int) bool {
			bg := s.mach(mi).bgApp
			return bg == "" || s.o.pair[pairKey(app, bg)].FgSlowdown <= limit
		}
		rejected := false
		coloc := x.set(setColoc)
		for w := range coloc {
			for v := coloc[w]; v != 0; v &= v - 1 {
				mi := w<<6 | bits.TrailingZeros64(v)
				if compatible(mi) {
					return mi, false
				}
				rejected = true
			}
		}
		if mi := x.first(setIdleUsed, n); mi >= 0 {
			return mi, rejected
		}
		if mi := x.first(setIdle, n); mi >= 0 {
			return mi, rejected
		}
		if mi := s.shortestQueue(setAvail, n, compatible); mi >= 0 {
			return mi, rejected
		}
		if mi := s.shortestQueue(setAvail, n, nil); mi >= 0 {
			return mi, rejected
		}
		return s.shortestQueue(setUp, n, nil), rejected

	default: // UtilTarget
		// Everything lands inside the statically provisioned prefix,
		// fullest machines first, with no partition check — the
		// strawman whose tail the check exists to protect. A fully
		// down prefix spills outside it rather than stalling.
		if mi := x.first(setColoc, s.prefixK); mi >= 0 {
			return mi, false
		}
		if mi := x.first(setFree, s.prefixK); mi >= 0 {
			return mi, false
		}
		if mi := s.shortestQueue(setAvail, s.prefixK, nil); mi >= 0 {
			return mi, false
		}
		if mi := s.shortestQueue(setAvail, n, nil); mi >= 0 {
			return mi, false
		}
		return s.shortestQueue(setUp, n, nil), false
	}
}

// selectBatch picks the machine for the next queued backlog item, or
// -1 when no batch slot is eligible. A batch slot only accepts work on
// an available machine whose latency slot is idle with an empty queue
// and that hosts no resident (the idle set) — service times are fixed
// at dispatch, so a resident never appears under a running request.
func (s *sim) selectBatch(now float64) int {
	s.releaseHolds(now)
	x := &s.idx
	switch s.policy {
	case SpreadIdle:
		// Keep batch away from latency traffic: machines that never
		// served a request first, least-recently-used within each
		// group.
		if mi := x.lruFresh.min(); mi >= 0 {
			return mi
		}
		return x.lruIdle.min()
	case PackPartition:
		// Consolidate onto machines the fleet is already paying
		// for; open a fresh one only when none has a free slot.
		if mi := x.first(setIdleUsed, s.n); mi >= 0 {
			return mi
		}
		return x.first(setIdle, s.n)
	default: // UtilTarget
		return x.first(setIdle, s.prefixK)
	}
}

// requeuedLen is the number of evicted items still awaiting
// re-placement (the live window of the requeued buffer).
func (s *sim) requeuedLen() int { return len(s.requeued) - s.reqHead }

// placeBatch assigns queued backlog items to batch slots until the
// width cap or the eligible machines are exhausted.
func (s *sim) placeBatch(now float64) {
	for (s.requeuedLen() > 0 || s.nextItem < len(s.backlog)) && s.resident < s.maxBatch {
		mi := s.selectBatch(now)
		if mi < 0 {
			return
		}
		// Evicted items re-place ahead of the untouched backlog — they
		// were already in progress when their machine went away.
		var app string
		var iters float64
		group := -1
		if s.requeuedLen() > 0 {
			rq := &s.requeued[s.reqHead]
			app, iters, group = rq.app, rq.iterations, rq.group
			s.reqHead++
			if s.reqHead == len(s.requeued) {
				s.requeued = s.requeued[:0]
				s.reqHead = 0
			}
		} else {
			item := &s.backlog[s.nextItem]
			app, iters = item.App, item.Iterations
			s.nextItem++
		}
		s.resident++
		s.account(mi, now)
		m := s.mach(mi)
		m.bgApp = app
		m.bgIters = iters
		m.bgRemaining = iters
		m.used = true
		s.reindex(mi)
		if group >= 0 {
			s.resolveReplace(group, now)
		}
		s.setBgRate(mi, s.o.aloneRate(app), now)
	}
}

// run executes the event loop to completion and returns the last
// event time.
func (s *sim) run() float64 {
	s.placeBatch(0)
	for len(s.events) > 0 {
		e := s.events.pop()
		if e.kind != evWake {
			// Synthetic hysteresis wake-ups retry placement but are not
			// part of the run's observable timeline.
			s.lastT = e.t
		}
		switch e.kind {
		case evFgDone:
			s.onFgDone(e.idx, e.ver, e.t)
		case evBgDone:
			s.onBgDone(e.idx, e.ver, e.t)
		case evArrival:
			s.onArrival(e.idx, e.t)
		case evFleet:
			s.onFleetEvent(e.idx, e.t)
		}
		s.placeBatch(e.t)
	}
	return s.lastT
}

// addPending enrolls one evicted job in a recovery group and tracks
// the re-placement backlog's peak.
func (s *sim) addPending(g int) {
	s.groups[g].outstanding++
	s.pendingRepl++
	if s.pendingRepl > s.peakRepl {
		s.peakRepl = s.pendingRepl
	}
}

// resolveReplace marks one evicted job re-placed; when it was its
// group's last, the group's time-to-recover is final.
func (s *sim) resolveReplace(g int, now float64) {
	s.pendingRepl--
	gr := &s.groups[g]
	gr.outstanding--
	if gr.outstanding == 0 {
		if d := now - gr.at; d > s.recoverMax {
			s.recoverMax = d
		}
	}
}

// tagReq enrolls a request in a recovery group. A request evicted a
// second time moves to the newer event's group, settling its previous
// group's ledger at the re-eviction time.
func (s *sim) tagReq(ri, g int, now float64) {
	rq := &s.reqs[ri]
	if rq.group >= 0 {
		s.resolveReplace(rq.group, now)
	}
	rq.group = g
	s.addPending(g)
}

// onFleetEvent applies one timeline entry.
func (s *sim) onFleetEvent(i int, now float64) {
	ev := s.timeline[i]
	switch ev.Kind {
	case EvMachineDown:
		s.onMachineDown(ev, now)
	case EvMachineUp:
		s.onMachineUp(ev, now)
	case EvBatchArrival:
		items := eventItems(ev, i, s.itemSeq)
		s.itemSeq += len(items)
		s.backlog = append(s.backlog, items...)
		s.totalItems += len(items)
	case EvBatchCancel:
		n := ev.Count
		if n == 0 {
			n = 1
		}
		s.cancelItems(ev.App, n, now)
	}
}

// onMachineDown takes a machine out of service. A failure (no drain)
// loses in-progress work: the active request restarts elsewhere and a
// resident batch item restarts from its full iteration count. A drain
// migrates the queue and resident with progress kept, lets the active
// request finish in place, and powers down afterwards.
func (s *sim) onMachineDown(ev Event, now float64) {
	mi := ev.Machine
	s.account(mi, now)
	m := s.mach(mi)
	g := -1
	group := func() int {
		if g < 0 {
			s.groups = append(s.groups, recGroup{at: now})
			g = len(s.groups) - 1
		}
		return g
	}
	if m.bgApp != "" {
		iters := m.bgIters
		if ev.Drain {
			iters = m.bgRemaining
			s.migrated++
		} else {
			s.lostJobs++
		}
		s.evicted++
		s.requeued = append(s.requeued, requeuedItem{app: m.bgApp, iterations: iters, group: group()})
		s.addPending(group())
		m.bgApp, m.bgRemaining = "", 0
		m.bgVer++
		s.resident--
	}
	// Queued requests never started; they migrate without losing work
	// under failure and drain alike.
	moved, nMoved := int(m.qHead), m.qLen
	m.qLen = 0
	for ri, k := moved, int32(0); k < nMoved; ri, k = int(s.reqs[ri].next), k+1 {
		s.evicted++
		s.migrated++
		s.tagReq(ri, group(), now)
	}
	act := -1
	if m.fgReq >= 0 {
		if ev.Drain {
			m.draining = true
		} else {
			act = int(m.fgReq)
			m.fgVer++ // the scheduled completion is void
			m.fgReq = -1
			s.evicted++
			s.lostJobs++
			s.tagReq(act, group(), now)
		}
	}
	if !m.draining {
		m.down = true
	}
	s.reindex(mi)
	// Re-place through the active policy: the interrupted request
	// first, then the queue in FIFO order; placeBatch (called after
	// every event) re-places the requeued item.
	if act >= 0 {
		s.placeRequest(act, now)
	}
	for ri, k := moved, int32(0); k < nMoved; k++ {
		// Read the link first: placing ri may queue it elsewhere.
		next := int(s.reqs[ri].next)
		s.placeRequest(ri, now)
		ri = next
	}
}

// onMachineUp returns a machine to service; the hysteresis hold keeps
// it out of preferred placement until the hold expires.
func (s *sim) onMachineUp(ev Event, now float64) {
	mi := ev.Machine
	s.account(mi, now)
	m := s.mach(mi)
	if m.draining {
		m.draining = false // the drain had not completed; cancel the power-down
	} else {
		m.down = false
		if h := s.def.Hysteresis; h > 0 {
			m.holdUntil = now + h
			s.push(m.holdUntil, evWake, mi, 0)
			s.hold(mi, now)
		}
		s.idx.lastFree[mi] = now
	}
	s.reindex(mi)
	if len(s.pendingReqs) > 0 {
		// Swap in the scratch buffer rather than nil: placeRequest may
		// re-pend a request mid-drain, and it must land in a buffer that
		// does not alias the one being iterated.
		pend := s.pendingReqs
		s.pendingReqs = s.pendScratch[:0]
		for _, ri := range pend {
			s.placeRequest(ri, now)
		}
		s.pendScratch = pend[:0]
	}
}

// cancelItems removes up to n not-yet-placed items of app, newest
// first — the untouched backlog tail, then requeued evictees. Resident
// items keep running.
func (s *sim) cancelItems(app string, n int, now float64) {
	removed := 0
	for i := len(s.backlog) - 1; i >= s.nextItem && removed < n; i-- {
		if s.backlog[i].App != app {
			continue
		}
		s.backlog = append(s.backlog[:i], s.backlog[i+1:]...)
		removed++
	}
	for i := len(s.requeued) - 1; i >= s.reqHead && removed < n; i-- {
		if s.requeued[i].app != app {
			continue
		}
		if g := s.requeued[i].group; g >= 0 {
			s.resolveReplace(g, now)
		}
		s.requeued = append(s.requeued[:i], s.requeued[i+1:]...)
		removed++
	}
	s.totalItems -= removed
}

// aloneRate is the resident's iteration rate with the latency slot
// empty.
func (o *oracle) aloneRate(app string) float64 {
	sec := o.alone[app].Seconds
	if sec <= 0 {
		return 0
	}
	return 1 / sec
}

// batchWidth is the fleet-wide cap on concurrent batch residents
// (default: a quarter of the pool).
func (d *Def) batchWidth() int {
	if d.BatchWidth > 0 {
		return d.BatchWidth
	}
	w := d.Machines / 4
	if w < 1 {
		w = 1
	}
	return w
}
