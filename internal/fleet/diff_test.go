package fleet

import (
	"fmt"
	"testing"

	"repro/internal/rng"
)

// This file retains the pre-index linear machine pickers as a reference
// model and drives seeded random machine states through both, asserting
// the placement index picks the identical machine (and the identical
// pack-partition rejected flag) for every policy, every tier, and
// request and batch placement alike. The goldens catch aggregate drift;
// this catches a single divergent choice, including in states a golden
// never reaches.

// refAvail is the original availability predicate: in service and with
// the hysteresis hold expired.
func refAvail(s *sim, mi int, now float64) bool {
	m := s.mach(mi)
	return !m.down && !m.draining && m.holdUntil <= now
}

func refUp(s *sim, mi int) bool {
	m := s.mach(mi)
	return !m.down && !m.draining
}

func refFgFree(s *sim, mi int) bool {
	m := s.mach(mi)
	return m.fgReq < 0 && m.qLen == 0
}

// refPickIndex returns the lowest-index machine satisfying ok, or -1.
func refPickIndex(s *sim, ok func(int) bool) int {
	for mi := range s.n {
		if ok(mi) {
			return mi
		}
	}
	return -1
}

// refPickLRU returns the machine satisfying ok that has been idle
// longest (never-used machines first, by index), or -1.
func refPickLRU(s *sim, ok func(int) bool) int {
	best := -1
	for mi := range s.n {
		if !ok(mi) {
			continue
		}
		if best < 0 || s.idx.lastFree[mi] < s.idx.lastFree[best] {
			best = mi
		}
	}
	return best
}

// refShortestQueue returns the machine with the fewest waiting requests
// among those satisfying ok, ties to the lowest index; -1 when none
// qualifies.
func refShortestQueue(s *sim, ok func(int) bool) int {
	best := -1
	for mi := range s.n {
		if !ok(mi) {
			continue
		}
		if best < 0 || s.mach(mi).qLen < s.mach(best).qLen {
			best = mi
		}
	}
	return best
}

// refSelectMachine is the original request placement. tier numbers the
// tier that decided, from 1; the tier after the last means no machine
// is in service.
func refSelectMachine(s *sim, app string, now float64) (mi int, rejected bool, tier int) {
	avail := func(mi int) bool { return refAvail(s, mi, now) }
	up := func(mi int) bool { return refUp(s, mi) }
	// try runs the tiers in order and reports the first hit.
	try := func(picks ...func() int) (int, int) {
		for i, p := range picks {
			if mi := p(); mi >= 0 {
				return mi, i + 1
			}
		}
		return -1, len(picks) + 1
	}
	switch s.policy {
	case SpreadIdle:
		mi, tier = try(
			func() int {
				return refPickLRU(s, func(mi int) bool {
					return avail(mi) && refFgFree(s, mi) && s.mach(mi).bgApp == ""
				})
			},
			func() int {
				return refShortestQueue(s, func(mi int) bool { return avail(mi) && s.mach(mi).bgApp == "" })
			},
			func() int { return refShortestQueue(s, avail) },
			func() int { return refShortestQueue(s, up) },
		)
		return mi, false, tier

	case PackPartition:
		sawFailing := false
		limit := s.def.slowdownLimit()
		compatible := func(mi int) bool {
			bg := s.mach(mi).bgApp
			return bg == "" || s.o.pair[pairKey(app, bg)].FgSlowdown <= limit
		}
		for mi := range s.n {
			m := s.mach(mi)
			if !avail(mi) || !refFgFree(s, mi) || m.bgApp == "" {
				continue
			}
			if s.o.pair[pairKey(app, m.bgApp)].FgSlowdown <= limit {
				return mi, false, 1
			}
			sawFailing = true
		}
		mi, tier = try(
			func() int {
				return refPickIndex(s, func(mi int) bool {
					return avail(mi) && refFgFree(s, mi) && s.mach(mi).bgApp == "" && s.mach(mi).used
				})
			},
			func() int {
				return refPickIndex(s, func(mi int) bool {
					return avail(mi) && refFgFree(s, mi) && s.mach(mi).bgApp == ""
				})
			},
			func() int { return refShortestQueue(s, func(mi int) bool { return avail(mi) && compatible(mi) }) },
			func() int { return refShortestQueue(s, avail) },
			func() int { return refShortestQueue(s, up) },
		)
		return mi, sawFailing, tier + 1

	default: // UtilTarget
		mi, tier = try(
			func() int {
				return refPickIndex(s, func(mi int) bool {
					return mi < s.prefixK && avail(mi) && refFgFree(s, mi) && s.mach(mi).bgApp != ""
				})
			},
			func() int {
				return refPickIndex(s, func(mi int) bool { return mi < s.prefixK && avail(mi) && refFgFree(s, mi) })
			},
			func() int { return refShortestQueue(s, func(mi int) bool { return mi < s.prefixK && avail(mi) }) },
			func() int { return refShortestQueue(s, avail) },
			func() int { return refShortestQueue(s, up) },
		)
		return mi, false, tier
	}
}

// refSelectBatch is the original batch-slot choice, numbered like
// refSelectMachine.
func refSelectBatch(s *sim, now float64) (mi, tier int) {
	eligible := func(mi int) bool {
		m := s.mach(mi)
		return refAvail(s, mi, now) && m.bgApp == "" && m.fgReq < 0 && m.qLen == 0
	}
	var first, second func() int
	switch s.policy {
	case SpreadIdle:
		first = func() int {
			return refPickLRU(s, func(mi int) bool { return eligible(mi) && !s.mach(mi).latencyUsed })
		}
		second = func() int { return refPickLRU(s, eligible) }
	case PackPartition:
		first = func() int { return refPickIndex(s, func(mi int) bool { return eligible(mi) && s.mach(mi).used }) }
		second = func() int { return refPickIndex(s, eligible) }
	default: // UtilTarget
		first = func() int { return refPickIndex(s, func(mi int) bool { return mi < s.prefixK && eligible(mi) }) }
	}
	if mi := first(); mi >= 0 {
		return mi, 1
	}
	if second == nil {
		return -1, 2
	}
	if mi := second(); mi >= 0 {
		return mi, 2
	}
	return -1, 3
}

// diffDensities are one trial's state probabilities. Trials draw them
// from a spread that includes 0 and 1, so some trials empty whole tiers
// (every machine down, every slot busy) and drive placement down to its
// last resorts.
type diffDensities struct {
	down, drain, held, busy, queue, bg, used, lat float64
}

func drawDensities(r *rng.Stream) diffDensities {
	p := func() float64 { return []float64{0, 0.1, 0.5, 0.9, 1}[r.Intn(5)] }
	return diffDensities{down: p(), drain: p(), held: p(), busy: p(), queue: p(), bg: p(), used: p(), lat: p()}
}

// randomizeMachine overwrites machine mi's placement-relevant state the
// way the sim's mutation sites do — fields first, then reindex — with
// holds registered through sim.hold. Times live on an integer grid so
// hold expiries and lastFree values tie exactly.
func randomizeMachine(s *sim, r *rng.Stream, d diffDensities, apps []string, mi int, now float64) {
	m := s.mach(mi)
	pick := func() string { return apps[r.Intn(len(apps))] }
	m.down = r.Bool(d.down)
	m.draining = !m.down && r.Bool(d.drain)
	m.fgReq = -1
	if r.Bool(d.busy) {
		m.fgReq = 0 // selection reads only whether a request is active
	}
	m.qLen = 0
	if r.Bool(d.queue) {
		m.qLen = int32(1 + r.Intn(3)) // selection reads only the length
	}
	m.bgApp = ""
	if r.Bool(d.bg) {
		m.bgApp = pick()
	}
	m.used = r.Bool(d.used)
	m.latencyUsed = r.Bool(d.lat)
	s.idx.lastFree[mi] = float64(r.Intn(4) - 1) // -1 = never freed
	if r.Bool(d.held) {
		m.holdUntil = now + float64(1+r.Intn(3))
		s.hold(mi, now)
	}
	s.reindex(mi)
}

// TestSelectorDifferential: the index-backed selectMachine and
// selectBatch choose exactly what the linear reference scans choose.
func TestSelectorDifferential(t *testing.T) {
	r := rng.NewNamed("fleet-selector-diff")
	apps := []string{"a", "b", "c"}
	// A pair table where every application has a passing and a failing
	// co-runner, so pack-partition's check both accepts and rejects.
	slow := map[[2]string]float64{
		{"a", "a"}: 1.0, {"a", "b"}: 1.4, {"a", "c"}: 1.15,
		{"b", "a"}: 1.3, {"b", "b"}: 1.1, {"b", "c"}: 2.0,
		{"c", "a"}: 1.2, {"c", "b"}: 1.05, {"c", "c"}: 1.16,
	}
	o := &oracle{pair: map[string]pairPerf{}}
	for k, v := range slow {
		o.pair[pairKey(k[0], k[1])] = pairPerf{FgSlowdown: v}
	}
	def := &Def{SlowdownLimit: 1.15}

	sizes := []int{1, 2, 7, 63, 64, 65, 127, 128, 129, 300}
	hits := map[string]int{}
	checks := 0
	for trial := range 500 {
		n := sizes[trial%len(sizes)]
		s := &sim{def: def, o: o}
		s.resetMachines(n)
		s.prefixK = 1 + r.Intn(n)
		if trial%3 == 0 {
			s.prefixK = n // the clamped prefix
		}
		d := drawDensities(r)
		now := 0.0
		for round := range 12 {
			// The first round starts from the pristine fleet every
			// episode opens with; later rounds churn a random subset.
			if round > 0 {
				for range 1 + r.Intn(n) {
					randomizeMachine(s, r, d, apps, r.Intn(n), now)
				}
			}
			for _, pol := range Policies() {
				s.policy = pol
				for _, app := range apps {
					want, wantRej, tier := refSelectMachine(s, app, now)
					got, gotRej := s.selectMachine(app, now)
					if got != want || gotRej != wantRej {
						t.Fatalf("trial %d round %d (n=%d prefix=%d t=%g) %s request %s: index chose %d rejected=%v, reference %d rejected=%v (tier %d)",
							trial, round, n, s.prefixK, now, pol, app, got, gotRej, want, wantRej, tier)
					}
					hits[fmt.Sprintf("%s/request/%d", pol, tier)]++
					if wantRej {
						hits[fmt.Sprintf("%s/rejected", pol)]++
					}
					checks++
				}
				want, tier := refSelectBatch(s, now)
				if got := s.selectBatch(now); got != want {
					t.Fatalf("trial %d round %d (n=%d prefix=%d t=%g) %s batch: index chose %d, reference %d (tier %d)",
						trial, round, n, s.prefixK, now, pol, got, want, tier)
				}
				hits[fmt.Sprintf("%s/batch/%d", pol, tier)]++
				checks++
			}
			now += float64(r.Intn(3))
		}
	}

	// Every tier of every policy — including "no machine at all" —
	// must have decided at least once, or the test proves less than it
	// claims.
	requestTiers := map[PolicyName]int{SpreadIdle: 5, PackPartition: 7, UtilTarget: 6}
	batchTiers := map[PolicyName]int{SpreadIdle: 3, PackPartition: 3, UtilTarget: 2}
	for _, pol := range Policies() {
		for tier := 1; tier <= requestTiers[pol]; tier++ {
			if k := fmt.Sprintf("%s/request/%d", pol, tier); hits[k] == 0 {
				t.Errorf("request tier %s never decided", k)
			}
		}
		for tier := 1; tier <= batchTiers[pol]; tier++ {
			if k := fmt.Sprintf("%s/batch/%d", pol, tier); hits[k] == 0 {
				t.Errorf("batch tier %s never decided", k)
			}
		}
	}
	if hits[string(PackPartition)+"/rejected"] == 0 {
		t.Error("pack-partition never rejected a co-location")
	}
	t.Logf("%d selections compared; tier hits %v", checks, hits)
}
