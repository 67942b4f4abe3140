// Package partition implements the paper's LLC management policies as
// a pluggable layer: a Policy interface with a package-level registry
// (shared, fair, biased, explicit, dynamic, utility ship registered),
// the shared online decision loop every monitoring policy runs under,
// the §5.2 exhaustive biased search, and the §6 dynamic controller
// (phase detection, Algorithm 6.1, and way reallocation, Algorithm
// 6.2). The scenario, fleet, experiment, and core layers all dispatch
// through the registry, so adding a policy is one file in this package
// plus a Register call — no run-layer edits.
package partition

import (
	"fmt"

	"repro/internal/machine"
	"repro/internal/sched"
	"repro/internal/workload"
)

// BiasedChoice records the outcome of the exhaustive biased search for
// one application pair.
type BiasedChoice struct {
	FgWays, BgWays int
	// FgSlowdown is the foreground slowdown at the chosen allocation,
	// relative to the foreground alone on its cores with the full LLC.
	FgSlowdown float64
	// BgThroughput is background iterations completed per foreground
	// run at the chosen allocation.
	BgThroughput float64
}

// slowdownTieEps treats allocations within this fraction of the minimum
// foreground degradation as ties, broken by background throughput —
// the paper's "among allocations with minimum foreground performance
// degradation, select the one that maximizes background performance".
// The tolerance is small: the paper's criterion is the strict minimum,
// and a loose tolerance would make the static baseline unrealistically
// background-friendly (hiding the gains Figures 9/13 report).
const slowdownTieEps = 0.002

// SearchSpecs lists every run the exhaustive biased search for a job
// list on platform cfg needs — the foreground-alone baseline plus each
// uneven split — so experiment drivers can batch the searches of many
// mixes up front. One background peer is the §5.2 pair shape; several
// peers share the background partition and contend within it (§6.3).
func SearchSpecs(cfg machine.Config, fg *workload.Profile, bgs ...*workload.Profile) []sched.Spec {
	if len(bgs) == 0 {
		panic("partition: biased search needs at least one background job")
	}
	assoc := cfg.Hier.LLC.Assoc
	specs := []sched.Spec{sched.HalfAlone(cfg, fg)}
	for w := 1; w < assoc; w++ {
		if len(bgs) == 1 {
			specs = append(specs, sched.Pair(cfg, fg, bgs[0], w, assoc-w, true))
		} else {
			specs = append(specs, sched.Multi(cfg, fg, bgs, w, assoc-w))
		}
	}
	return specs
}

// Candidate is one allocation's measured outcome in a biased search.
// The scenario layer builds candidates from arbitrary job mixes and
// reuses the same selection rules through PickBiased and
// PickForForeground.
type Candidate struct {
	FgWays       int
	FgSlowdown   float64 // foreground time / foreground-alone time
	BgThroughput float64 // summed background iterations
}

// SweepCandidates reads the candidates of a split sweep: results[w-1]
// ran the latency job (job index fg) in w ways with every other job
// sharing the rest. Slowdowns are relative to the latency job's alone
// time; throughput sums the looping jobs' iterations.
func SweepCandidates(results []*machine.Result, fg int, fgAlone float64) []Candidate {
	cands := make([]Candidate, len(results))
	for i, res := range results {
		var thru float64
		for _, j := range res.Jobs {
			if j.Background {
				thru += j.Iterations
			}
		}
		cands[i] = Candidate{
			FgWays:       i + 1,
			FgSlowdown:   res.Jobs[fg].Seconds / fgAlone,
			BgThroughput: thru,
		}
	}
	return cands
}

// PickBiased returns the index of the winning candidate under the
// §5.2 criterion: among allocations within slowdownTieEps of the
// minimum foreground degradation, the one that maximizes background
// throughput.
func PickBiased(cands []Candidate) int {
	if len(cands) == 0 {
		panic("partition: PickBiased with no candidates")
	}
	minSlow := cands[0].FgSlowdown
	for _, c := range cands[1:] {
		if c.FgSlowdown < minSlow {
			minSlow = c.FgSlowdown
		}
	}
	best := -1
	for i, c := range cands {
		if c.FgSlowdown > minSlow*(1+slowdownTieEps) {
			continue
		}
		if best < 0 || c.BgThroughput > cands[best].BgThroughput {
			best = i
		}
	}
	return best
}

// PickForForeground returns the index of the winning candidate under
// the Figure 13 criterion: minimum foreground degradation with ties
// broken toward the larger (more protective) foreground share.
// Candidates must be ordered by ascending FgWays.
func PickForForeground(cands []Candidate) int {
	if len(cands) == 0 {
		panic("partition: PickForForeground with no candidates")
	}
	best := -1
	var bestSlow float64
	for i := len(cands) - 1; i >= 0; i-- { // larger fg shares win ties
		if best < 0 || cands[i].FgSlowdown < bestSlow*(1-slowdownTieEps) {
			best = i
			bestSlow = cands[i].FgSlowdown
		}
	}
	return best
}

// BestSplit exhaustively evaluates every uneven split (foreground gets
// w ways, the background peers share the remaining assoc-w, for w in
// [1, assoc-1]) with the backgrounds running continuously, and returns
// the choice the searcher's selection rule picks. The splits run as
// one batch across the engine's workers.
func BestSplit(r *sched.Runner, s Searcher, fg *workload.Profile, bgs ...*workload.Profile) BiasedChoice {
	cfg := r.MachineConfig()
	results := r.RunBatch(SearchSpecs(cfg, fg, bgs...))
	fgAlone := results[0].JobByName(fg.Name).Seconds

	cands := SweepCandidates(results[1:], 0, fgAlone)
	ch := cands[s.Pick(cands)]
	return BiasedChoice{
		FgWays:       ch.FgWays,
		BgWays:       cfg.Hier.LLC.Assoc - ch.FgWays,
		FgSlowdown:   ch.FgSlowdown,
		BgThroughput: ch.BgThroughput,
	}
}

// BestBiased is BestSplit under the default biased rule (§5.2: minimum
// foreground degradation, ties broken by background throughput).
func BestBiased(r *sched.Runner, fg *workload.Profile, bgs ...*workload.Profile) BiasedChoice {
	return BestSplit(r, biasedPolicy{}, fg, bgs...)
}

// BestForForeground returns the static allocation that is best for the
// foreground alone — minimum foreground degradation with ties broken
// toward the larger (more protective) foreground share. This is the
// Figure 13 baseline ("the best static cache allocation for the
// foreground application"), distinct from BestBiased's background-aware
// tie-break used in Figure 9.
func BestForForeground(r *sched.Runner, fg *workload.Profile, bgs ...*workload.Profile) BiasedChoice {
	return BestSplit(r, biasedPolicy{protective: true}, fg, bgs...)
}

// SplitWays divides assoc ways into n contiguous disjoint shares, the
// generalized fair policy: every job gets assoc/n ways, the earliest
// jobs absorbing the remainder. The returned [first, lim) ranges cover
// the cache.
func SplitWays(assoc, n int) [][2]int {
	if n < 1 || n > assoc {
		panic(fmt.Sprintf("partition: cannot split %d ways %d ways", assoc, n))
	}
	out := make([][2]int, n)
	base, rem := assoc/n, assoc%n
	first := 0
	for i := range out {
		w := base
		if i < rem {
			w++
		}
		out[i] = [2]int{first, first + w}
		first += w
	}
	return out
}
