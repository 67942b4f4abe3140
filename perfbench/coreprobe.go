package main

import (
	"fmt"
	"hash"
	"hash/fnv"
	"time"

	"repro/internal/cache"
	"repro/internal/cpu"
	"repro/internal/interconnect"
	"repro/internal/machine"
	"repro/internal/memory"
	"repro/internal/partition"
	"repro/internal/prefetch"
	"repro/internal/rng"
	"repro/internal/trace"
	"repro/internal/workload"
)

// The simulator-core layers (trace, prefetch, cache, memory,
// interconnect, partition decisions) are only called inside
// machine.Run, so the benchmark measures them with a layer probe: a
// seeded replay of the workload's own applications' phases through the
// layers' public calls, in the order the machine's epoch loop makes
// them. A recording pass runs the whole interleaved loop once and logs
// every call; a timing pass per layer then replays that layer's calls
// alone on a fresh instance. Each replay must reproduce the recording's
// outputs, so the counts are exact for a seed and only timings vary.

// coreOp is one logged layer call.
type coreOp struct {
	addr, pc uint64
	kind     uint8
	core     uint8
	lvl      cache.Level // outcome of a demand access
	flag     bool        // store (demand), into L1 (prefetch fill)
}

const (
	opData uint8 = iota
	opCode
	opObserveL1
	opObserveL2
	opFill
)

// probeThread is one application pinned alone on one core.
type probeThread struct {
	app      *workload.Profile
	job      int
	core     int
	slot     int
	rnd      *rng.Stream
	gen      *trace.Generator
	code     *trace.CodeGenerator
	phaseIdx int
}

func newProbeThreads(apps []*workload.Profile, cfg machine.Config, seed int64) []*probeThread {
	var ths []*probeThread
	for k, app := range apps {
		if k >= cfg.Cores {
			break
		}
		ths = append(ths, &probeThread{
			app: app, job: k, core: k, slot: k * cfg.ThreadsPerCore, phaseIdx: -1,
			rnd: rng.NewNamed(fmt.Sprintf("perfbench/%s/%d/%d", app.Name, seed, k)),
		})
	}
	return ths
}

// reconfigure mirrors the machine's per-phase generator rebuild for a
// single-threaded job.
func (t *probeThread) reconfigure(ph workload.Phase, idx int) {
	base := uint64(t.job+1) << 40
	ws := ph.WorkingSetBytes
	if ws < 8*1024 {
		ws = 8 * 1024
	}
	t.gen = trace.NewGenerator(trace.Config{
		DataBase:     base + 2<<30,
		PrivateBytes: ws,
		SharedBase:   base + 1<<30,
		Mix:          ph.Mix,
		StrideLines:  ph.StrideLines,
		WriteFrac:    t.app.WriteFrac,
		StreamFrac:   ph.StreamFrac,
		HotFrac:      ph.HotFrac,
		HotPortion:   ph.HotPortion,
		RepeatFrac:   ph.RepeatFrac,
		HotStride:    ph.HotStride,
	}, t.rnd.Derive(fmt.Sprintf("gen/%d", idx)))
	if t.code == nil {
		t.code = trace.NewCodeGenerator(base, t.app.CodeFootprintBytes, 64, t.rnd.Derive("code"))
	}
	t.phaseIdx = idx
}

// epochRec is one thread epoch of the recording.
type epochRec struct {
	th, phase    int
	nData, nCode int
}

// stepRec is one epoch's memory and interconnect step.
type stepRec struct {
	slot, core         int
	dramRate, ringRate float64
}

// coreProbe holds a recording, which the time* methods replay.
type coreProbe struct {
	cfg  machine.Config
	apps []*workload.Profile
	seed int64

	threads  []*probeThread
	epochLog []epochRec
	ops      []coreOp
	steps    []stepRec
	snaps    []partition.Snapshot
	refHash  uint64
	requests int // prefetch requests the units produced
	fills    int
	demand   int // non-streaming data references
	stats    []cache.CoreStats
}

// recordCore runs the interleaved loop once: every epoch of every
// thread generates its references, walks them through the hierarchy
// and the prefetch units, and steps memory and the ring. The shadow
// utility monitors ride along to feed the decision snapshots.
func recordCore(apps []*workload.Profile, seed int64, epochs int) *coreProbe {
	cfg := machine.Default()
	p := &coreProbe{cfg: cfg, apps: apps, seed: seed}
	p.threads = newProbeThreads(apps, cfg, seed)
	hier := cache.NewHierarchy(cfg.Hier)
	slots := cfg.Cores * cfg.ThreadsPerCore
	dram := memory.NewDRAM(cfg.DRAM, slots)
	ring := interconnect.NewRing(cfg.Ring, slots)
	pfs := make([]*prefetch.Unit, cfg.Cores)
	for c := range pfs {
		pfs[c] = prefetch.NewUnit(cfg.Prefetch)
	}
	umons := make([]*cache.UMON, len(p.threads))
	for k, th := range p.threads {
		umons[k] = cache.NewUMON(hier.LLC().Config(), umonShift)
		hier.AttachUMON(th.core, umons[k])
	}
	h := fnv.New64a()
	var refs []trace.Ref
	n := cfg.EpochInstructions
	prevMiss := make([]uint64, len(p.threads))
	for e := 0; e < epochs; e++ {
		for k, th := range p.threads {
			ph, idx := th.app.PhaseAt((float64(e) + 0.5) / float64(epochs))
			if idx != th.phaseIdx {
				th.reconfigure(ph, idx)
			}
			rec := epochRec{th: k, phase: idx, nData: int(n*ph.APKI/1000 + 0.5), nCode: int(n*th.app.CodeRefPKI/1000 + 0.5)}
			p.epochLog = append(p.epochLog, rec)
			var l2, llc, mem, stream, pfHits, dramBytes, llcBytes float64
			count := func(out cache.AccessOutcome) {
				switch out.Level {
				case cache.LevelL2:
					l2++
				case cache.LevelLLC:
					llc++
					llcBytes += 64
				case cache.LevelMem:
					mem++
					llcBytes += 64
				}
				dramBytes += float64(out.DRAMReadBytes + out.DRAMWriteBytes)
			}
			issue := func(reqs []prefetch.Request, issued *int) {
				p.requests += len(reqs)
				for _, rq := range reqs {
					if *issued >= cfg.MaxPrefetchIssue {
						break
					}
					po := hier.PrefetchFill(th.core, rq.LineAddr, rq.IntoL1)
					p.ops = append(p.ops, coreOp{kind: opFill, core: uint8(th.core), addr: rq.LineAddr, flag: rq.IntoL1})
					p.fills++
					dramBytes += float64(po.DRAMReadBytes + po.DRAMWriteBytes)
					if po.DRAMReadBytes > 0 {
						llcBytes += 64
					}
					*issued++
				}
			}

			refs = grow(refs, rec.nData)
			th.gen.FillBatch(refs)
			hashRefs(h, refs)
			for _, ref := range refs {
				if ref.Streaming {
					stream++
					dramBytes += 64
					continue
				}
				p.demand++
				out := hier.Access(th.core, ref.LineAddr, ref.Write, false)
				p.ops = append(p.ops, coreOp{kind: opData, core: uint8(th.core), addr: ref.LineAddr, lvl: out.Level, flag: ref.Write})
				count(out)
				if out.HitPrefetched {
					pfHits++
				}
				issued := 0
				p.ops = append(p.ops, coreOp{kind: opObserveL1, core: uint8(th.core), addr: ref.LineAddr, pc: ref.PC})
				issue(pfs[th.core].ObserveL1D(ref.PC, ref.LineAddr), &issued)
				if out.Level >= cache.LevelL2 {
					p.ops = append(p.ops, coreOp{kind: opObserveL2, core: uint8(th.core), addr: ref.LineAddr})
					issue(pfs[th.core].ObserveL2(ref.LineAddr), &issued)
				}
			}
			refs = grow(refs, rec.nCode)
			th.code.FillBatch(refs)
			hashRefs(h, refs)
			for _, ref := range refs {
				out := hier.Access(th.core, ref.LineAddr, false, true)
				p.ops = append(p.ops, coreOp{kind: opCode, core: uint8(th.core), addr: ref.LineAddr, lvl: out.Level})
				count(out)
			}

			cycles := cfg.Timing.Cycles(cpu.EpochCost{
				Instructions: n, L2Hits: l2, LLCHits: llc, MemAccesses: mem + stream,
				// The unloaded late-prefetch share: these cycles only set
				// the bus rates the memory and ring steps replay.
				PrefetchedHits: pfHits, LateFrac: 0.15,
				LLCLatency: ring.LLCLatency(th.core), MemLatency: dram.LatencyFor(th.slot),
				MLP: th.app.MLP, CPIScale: th.app.CPIScale,
			})
			st := stepRec{slot: th.slot, core: th.core, dramRate: dramBytes / cycles, ringRate: (llcBytes + dramBytes) / cycles}
			dram.Bus().SetRate(st.slot, st.dramRate)
			ring.Bus().SetRate(st.slot, st.ringRate)
			p.steps = append(p.steps, st)
		}
		// One decision interval per round, as the online loop sees it.
		snap := partition.Snapshot{Now: float64(e), Assoc: cfg.Hier.LLC.Assoc, Live: true}
		for k, th := range p.threads {
			cs := hier.CoreStats(th.core)
			snap.Jobs = append(snap.Jobs, partition.JobView{
				App: th.app.Name, Latency: k == 0,
				MPKI:         float64(cs.LLCMisses-prevMiss[k]) / (n / 1000),
				Instructions: n,
				Utility:      umons[k].Curve(nil),
			})
			prevMiss[k] = cs.LLCMisses
		}
		p.snaps = append(p.snaps, snap)
	}
	p.refHash = h.Sum64()
	for _, th := range p.threads {
		p.stats = append(p.stats, hier.CoreStats(th.core))
	}
	return p
}

// umonShift is the set-sampling stride of the probe's utility monitors
// (the utility policy's default).
const umonShift = 5

func grow(b []trace.Ref, n int) []trace.Ref {
	if cap(b) < n {
		return make([]trace.Ref, n)
	}
	return b[:n]
}

func hashRefs(h hash.Hash64, refs []trace.Ref) {
	var b [17]byte
	for _, r := range refs {
		for i := 0; i < 8; i++ {
			b[i] = byte(r.LineAddr >> (8 * i))
			b[8+i] = byte(r.PC >> (8 * i))
		}
		b[16] = 0
		if r.Write {
			b[16] |= 1
		}
		if r.Streaming {
			b[16] |= 2
		}
		h.Write(b[:])
	}
}

// timeTrace replays the recording's reference generation on fresh
// generators; the stream must hash identically.
func (p *coreProbe) timeTrace() (nsPerRef float64, err error) {
	threads := newProbeThreads(p.apps, p.cfg, p.seed)
	h := fnv.New64a()
	var refs []trace.Ref
	var total time.Duration
	count := 0
	for _, rec := range p.epochLog {
		th := threads[rec.th]
		if rec.phase != th.phaseIdx {
			ph := th.app.Phases[rec.phase]
			th.reconfigure(ph, rec.phase)
		}
		refs = grow(refs, rec.nData)
		t0 := time.Now()
		th.gen.FillBatch(refs)
		total += time.Since(t0)
		hashRefs(h, refs)
		refs = grow(refs, rec.nCode)
		t0 = time.Now()
		th.code.FillBatch(refs)
		total += time.Since(t0)
		hashRefs(h, refs)
		count += rec.nData + rec.nCode
	}
	if h.Sum64() != p.refHash {
		return 0, fmt.Errorf("trace probe: replayed reference stream differs from the recording")
	}
	return float64(total.Nanoseconds()) / float64(max(count, 1)), nil
}

// timePrefetch replays every observe call on fresh units.
func (p *coreProbe) timePrefetch() (nsPerObserve float64, err error) {
	pfs := make([]*prefetch.Unit, p.cfg.Cores)
	for c := range pfs {
		pfs[c] = prefetch.NewUnit(p.cfg.Prefetch)
	}
	requests, calls := 0, 0
	t0 := time.Now()
	for i := range p.ops {
		op := &p.ops[i]
		switch op.kind {
		case opObserveL1:
			requests += len(pfs[op.core].ObserveL1D(op.pc, op.addr))
			calls++
		case opObserveL2:
			requests += len(pfs[op.core].ObserveL2(op.addr))
			calls++
		}
	}
	d := time.Since(t0)
	if requests != p.requests {
		return 0, fmt.Errorf("prefetch probe: %d requests replayed, %d recorded", requests, p.requests)
	}
	return float64(d.Nanoseconds()) / float64(max(calls, 1)), nil
}

// cacheTimes are the cache probe's per-call means.
type cacheTimes struct{ access, miss, fill float64 }

// timeCache replays the demand accesses and prefetch fills, in order,
// on a fresh hierarchy. Calls are timed in runs of one class (hit,
// miss to memory, fill), less the clock's own cost per run.
func (p *coreProbe) timeCache() (cacheTimes, error) {
	type class uint8
	const (
		hit class = iota
		miss
		fill
		skip
	)
	classOf := func(op *coreOp) class {
		switch op.kind {
		case opData, opCode:
			if op.lvl == cache.LevelMem {
				return miss
			}
			return hit
		case opFill:
			return fill
		}
		return skip
	}
	var seq []coreOp
	for _, op := range p.ops {
		if classOf(&op) != skip {
			seq = append(seq, op)
		}
	}
	clock := clockCost()
	hier := cache.NewHierarchy(p.cfg.Hier)
	var total [3]time.Duration
	var calls [3]int
	for i := 0; i < len(seq); {
		c := classOf(&seq[i])
		j := i
		bad := -1
		t0 := time.Now()
		for ; j < len(seq) && classOf(&seq[j]) == c; j++ {
			op := &seq[j]
			switch op.kind {
			case opData:
				if hier.Access(int(op.core), op.addr, op.flag, false).Level != op.lvl {
					bad = j
				}
			case opCode:
				if hier.Access(int(op.core), op.addr, false, true).Level != op.lvl {
					bad = j
				}
			case opFill:
				hier.PrefetchFill(int(op.core), op.addr, op.flag)
			}
		}
		d := time.Since(t0) - clock
		if bad >= 0 {
			return cacheTimes{}, fmt.Errorf("cache probe: access %d replayed to a different level", bad)
		}
		total[c] += max(d, 0)
		calls[c] += j - i
		i = j
	}
	per := func(c class) float64 { return float64(total[c].Nanoseconds()) / float64(max(calls[c], 1)) }
	return cacheTimes{
		access: float64((total[hit] + total[miss]).Nanoseconds()) / float64(max(calls[hit]+calls[miss], 1)),
		miss:   per(miss),
		fill:   per(fill),
	}, nil
}

// clockCost is the median cost of one start/stop pair of the clock the
// probes time runs with.
func clockCost() time.Duration {
	samples := make([]float64, 501)
	for i := range samples {
		t0 := time.Now()
		samples[i] = float64(time.Since(t0))
	}
	return time.Duration(median(samples))
}

// timeUMON replays every demand access that reached the LLC through a
// fresh utility monitor per core.
func (p *coreProbe) timeUMON() float64 {
	umons := make([]*cache.UMON, p.cfg.Cores)
	for c := range umons {
		umons[c] = cache.NewUMON(p.cfg.Hier.LLC, umonShift)
	}
	calls := 0
	t0 := time.Now()
	for i := range p.ops {
		op := &p.ops[i]
		if (op.kind == opData || op.kind == opCode) && op.lvl >= cache.LevelLLC {
			umons[op.core].Access(op.addr)
			calls++
		}
	}
	return float64(time.Since(t0).Nanoseconds()) / float64(max(calls, 1))
}

// timeSteps replays the per-epoch memory and ring steps reps times.
func (p *coreProbe) timeSteps(reps int) (memNs, ringNs float64) {
	slots := p.cfg.Cores * p.cfg.ThreadsPerCore
	dram := memory.NewDRAM(p.cfg.DRAM, slots)
	ring := interconnect.NewRing(p.cfg.Ring, slots)
	sink := 0.0
	t0 := time.Now()
	for r := 0; r < reps; r++ {
		for _, s := range p.steps {
			sink += dram.LatencyFor(s.slot) + dram.Bus().UtilizationFor(s.slot)
			dram.Bus().SetRate(s.slot, s.dramRate)
		}
	}
	memD := time.Since(t0)
	t0 = time.Now()
	for r := 0; r < reps; r++ {
		for _, s := range p.steps {
			sink += ring.LLCLatency(s.core)
			ring.Bus().SetRate(s.slot, s.ringRate)
		}
	}
	ringD := time.Since(t0)
	n := float64(max(reps*len(p.steps), 1))
	if sink < 0 {
		n++ // keeps sink live; latencies are never negative
	}
	return float64(memD.Nanoseconds()) / n, float64(ringD.Nanoseconds()) / n
}

// timeDecide drives the online policies through the recorded decision
// snapshots, applying each decision's way counts to the next snapshot
// as the loop does.
func (p *coreProbe) timeDecide(reps int) (float64, error) {
	assoc := p.cfg.Hier.LLC.Assoc
	var total time.Duration
	calls := 0
	for _, name := range []string{"dynamic", "utility"} {
		pol, err := partition.New(name, nil)
		if err != nil {
			return 0, err
		}
		static := partition.Snapshot{Assoc: assoc, Jobs: make([]partition.JobView, len(p.threads))}
		for k := range static.Jobs {
			static.Jobs[k] = partition.JobView{App: p.threads[k].app.Name, Latency: k == 0, Ways: assoc}
		}
		if err := pol.CheckMix(&static); err != nil {
			return 0, fmt.Errorf("decide probe %s: %w", name, err)
		}
		snaps := make([]partition.Snapshot, len(p.snaps))
		for i, s := range p.snaps {
			snaps[i] = s
			snaps[i].Jobs = append([]partition.JobView(nil), s.Jobs...)
		}
		for r := 0; r < reps; r++ {
			inst := pol.Instance()
			ways := make([]int, len(p.threads))
			t0 := time.Now()
			masks := inst.Decide(&static)
			for i := range snaps {
				for k, m := range masks {
					ways[k] = assoc
					if m != 0 {
						ways[k] = m.Count()
					}
					snaps[i].Jobs[k].Ways = ways[k]
				}
				masks = inst.Decide(&snaps[i])
				if err := partition.ValidateMasks(assoc, len(ways), masks); err != nil {
					return 0, fmt.Errorf("decide probe %s: %w", name, err)
				}
			}
			total += time.Since(t0)
			calls += len(snaps) + 1
		}
	}
	return float64(total.Nanoseconds()) / float64(max(calls, 1)), nil
}

// missFracs are the recording's demand miss ratios, summed over cores.
func (p *coreProbe) missFracs() (l1d, llc float64) {
	var a, m, la, lm uint64
	for _, s := range p.stats {
		a += s.L1DAccesses
		m += s.L1DMisses
		la += s.LLCAccesses
		lm += s.LLCMisses
	}
	return float64(m) / float64(max(a, 1)), float64(lm) / float64(max(la, 1))
}
