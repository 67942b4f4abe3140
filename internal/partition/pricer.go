package partition

import (
	"errors"

	"repro/internal/machine"
	"repro/internal/sched"
	"repro/internal/workload"
)

// PairPlan is how a partition policy prices one foreground/background
// co-location: the static splits to evaluate and the rule that picks
// among them, or, for an online policy, the one loop-attached episode
// to run. PlanPair is the one place the Searcher/online/offline
// dispatch lives. The exact tier simulates a plan (Specs, one batch,
// Harvest); the fleet's analytic tier predicts the same splits.
type PairPlan struct {
	// Splits are the static (fgWays, bgWays) splits to evaluate, in run
	// order; (0, 0) is the fully shared cache. A Searcher sweeps every
	// uneven split, an offline policy evaluates its own split, and an
	// online policy has none.
	Splits [][2]int

	pol      Policy
	online   bool
	searcher Searcher
}

// CheckPair validates pol against the pair shape — a latency
// foreground over one batch background — on an assoc-way LLC (0 = the
// platform is not yet known, so only shape rules are checked).
func CheckPair(pol Policy, assoc int) error {
	if err := pol.CheckMix(&Snapshot{Assoc: assoc, Jobs: []JobView{{Latency: true}, {}}}); err != nil {
		return err
	}
	if _, ok := pol.(explicitPolicy); ok {
		// Explicit applies declared per-job ranges; a pair declares
		// none, so it would silently run as shared.
		return errors.New("explicit needs per-job way ranges, which a foreground/background pair cannot declare (use shared, fair, biased, dynamic, or utility)")
	}
	return nil
}

// PlanPair checks pol against the pair shape on an assoc-way LLC and
// returns its plan.
func PlanPair(pol Policy, assoc int) (PairPlan, error) {
	if err := CheckPair(pol, assoc); err != nil {
		return PairPlan{}, err
	}
	plan := PairPlan{pol: pol}
	switch searcher, _ := pol.(Searcher); {
	case searcher != nil:
		plan.searcher = searcher
		for w := 1; w < assoc; w++ {
			plan.Splits = append(plan.Splits, [2]int{w, assoc - w})
		}
	case pol.Online():
		plan.online = true
	default:
		fgW, bgW := PairWays(pol, assoc)
		plan.Splits = [][2]int{{fgW, bgW}}
	}
	return plan, nil
}

// Online reports whether the plan runs one loop-attached episode
// instead of evaluating static splits.
func (p PairPlan) Online() bool { return p.online }

// Pick returns the index of the winning candidate, one per split: the
// Searcher's selection rule over a sweep, the only candidate otherwise.
func (p PairPlan) Pick(cands []Candidate) int {
	if p.searcher == nil {
		return 0
	}
	return p.searcher.Pick(cands)
}

// Specs lays the plan's runs out on cfg, the background looping: one
// pair per split, or the online episode.
func (p PairPlan) Specs(cfg machine.Config, scale float64, fg, bg *workload.Profile) []sched.MixSpec {
	if p.online {
		return []sched.MixSpec{PairEpisode(cfg, scale, p.pol, fg, bg, nil)}
	}
	out := make([]sched.MixSpec, len(p.Splits))
	for i, s := range p.Splits {
		out[i] = sched.Pair(cfg, fg, bg, s[0], s[1], true)
	}
	return out
}

// PairOutcome is a simulated co-location under a plan.
type PairOutcome struct {
	// Result is the chosen run.
	Result *machine.Result
	// FgWays/BgWays are the chosen split, or an online policy's final
	// allocation; (0, 0) is the fully shared cache.
	FgWays, BgWays int
	// Reallocations counts an online policy's mask changes.
	Reallocations int
}

// Harvest picks the plan's outcome from the results of its Specs, in
// order. fgAlone is the foreground's alone time, the baseline of the
// candidates' slowdowns.
func (p PairPlan) Harvest(results []*machine.Result, fgAlone float64) PairOutcome {
	if p.online {
		out := PairOutcome{Result: results[0]}
		if tr := results[0].Partition; tr != nil && len(tr.FinalWays) == 2 {
			out.FgWays, out.BgWays = tr.FinalWays[0], tr.FinalWays[1]
			out.Reallocations = tr.Reallocations
		}
		return out
	}
	i := 0
	if p.searcher != nil {
		i = p.searcher.Pick(SweepCandidates(results[:len(p.Splits)], 0, fgAlone))
	}
	return PairOutcome{Result: results[i], FgWays: p.Splits[i][0], BgWays: p.Splits[i][1]}
}

// PairEpisode is an online policy's co-location episode: the
// shared-cache pair, background looping, with pol's decision loop
// attached at the engine-conventional sampling interval. The run is
// memoizable under pol's RunKey. With lp non-nil the attached loop is
// stored through it (for its MPKI/allocation series) and the run is
// not memoized, since a cached result could not carry the series.
func PairEpisode(cfg machine.Config, scale float64, pol Policy, fg, bg *workload.Profile, lp **Loop) sched.MixSpec {
	interval := SamplingInterval(fg, scale)
	mix := sched.Pair(cfg, fg, bg, 0, 0, true)
	mix.Setup = func(m *machine.Machine, jobs []*machine.Job) {
		loop := AttachLoop(m, []LoopJob{
			{Job: jobs[0], Cores: jobs[0].Cores(), App: fg.Name, Latency: true},
			{Job: jobs[1], Cores: jobs[1].Cores(), App: bg.Name},
		}, pol, interval)
		if lp != nil {
			*lp = loop
		}
	}
	if lp == nil {
		mix.PolicyKey = RunKey(pol, interval, []bool{true, false})
	}
	return mix
}
