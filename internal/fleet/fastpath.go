package fleet

import (
	"time"

	"repro/internal/model"
	"repro/internal/obs"
	"repro/internal/partition"
	"repro/internal/sched"
	"repro/internal/workload"
)

// probeAloneMix is the profiling run of the fast tiers: the canonical
// alone-half mix with the MRC monitor attached. The monitor is
// shadow-only, so the run's timing/energy fields are byte-identical to
// the unprobed alone run's — the fast tiers' alone baselines are exact
// — while the ProbeKey gives the run a memo/disk key that can never
// alias the unprobed mix (or another model version).
func (o *oracle) probeAloneMix(app *workload.Profile) sched.MixSpec {
	mix := o.pin(sched.HalfAlone(o.cfg, app))
	mix.Setup = model.ProbeSetup()
	mix.ProbeKey = model.ProbeKey()
	return mix
}

// buildFast fills the oracle's tables under the fast or auto tier: one
// profiling run per distinct application, MRC+CPI predictions for
// every co-location, and — under auto — exact re-simulation of the
// borderline pairs whose predicted request slowdown lands within the
// fleet's fast_margin of slowdown_limit (the band where an analytic
// error could flip a pack-partition admission decision).
func (o *oracle) buildFast(r *sched.Runner, d *Def, fgs, bgs []string, apps map[string]*workload.Profile,
	fid Fidelity, span obs.SpanID) error {
	o.fid = fid

	var specs []sched.Spec
	probeAt := map[string]int{}
	var order []string
	for _, name := range append(append([]string{}, fgs...), bgs...) {
		if _, dup := probeAt[name]; dup {
			continue
		}
		probeAt[name] = len(specs)
		order = append(order, name)
		specs = append(specs, o.probeAloneMix(apps[name]))
	}
	results := r.RunBatchIn(sched.BatchInfo{Span: span, Phase: "probe"}, specs)

	// "predict" covers the analytic work that replaces simulation:
	// building MRC profiles from the probes and pricing every pair.
	p0 := time.Now()
	psp := r.Tracer().Start("predict", span, obs.Int("profiles", len(order)))
	profiles := map[string]*model.Profile{}
	for _, name := range order {
		res := results[probeAt[name]]
		o.alone[name] = alonePerfOf(res)
		p, err := model.NewProfile(name, apps[name].MLP, res, 0, o.cfg)
		if err != nil {
			psp.End()
			return err
		}
		profiles[name] = p
	}

	est := model.NewEstimator(o.cfg)
	for _, fg := range fgs {
		for _, bg := range bgs {
			o.pair[pairKey(fg, bg)] = predictPair(est, o.plan, profiles[fg], profiles[bg], o.cfg.Hier.LLC.Assoc)
			o.predicted++
		}
	}
	psp.End(obs.Int("pairs", o.predicted))
	r.AddPhase("predict", time.Since(p0))

	if fid != FidelityAuto {
		return nil
	}

	// Auto: re-simulate the borderline pairs exactly, in the same spec
	// order the exact tier would have planned them.
	limit, margin := d.slowdownLimit(), d.fastMargin()
	var border [][2]string
	for _, p := range crossPairs(fgs, bgs) {
		diff := o.pair[pairKey(p[0], p[1])].FgSlowdown - limit
		if diff < 0 {
			diff = -diff
		}
		if diff > margin {
			continue
		}
		border = append(border, p)
	}
	if len(border) == 0 {
		return nil
	}
	o.simulate(r, span, "resim", apps, nil, border)
	o.predicted -= len(border)
	o.resimmed += len(border)
	return nil
}

// predictPair forecasts one co-location under the partition policy's
// pair plan: each planned split is priced analytically — an
// unpartitioned split at the LRU-competition equilibrium — and the
// plan's rule picks the winner. An online policy is priced at the split
// that maximizes combined predicted hit rate (the utility objective).
func predictPair(est *model.Estimator, plan partition.PairPlan, fg, bg *model.Profile, assoc int) pairPerf {
	var pred model.PairPrediction
	var fgWays int
	if plan.Online() {
		best, bestVal := assoc/2, -1.0
		for w := 1; w < assoc; w++ {
			v := fg.HitRatePerSec(float64(w)) + bg.HitRatePerSec(float64(assoc-w))
			if v > bestVal {
				best, bestVal = w, v
			}
		}
		pred, fgWays = est.PredictPair(fg, bg, float64(best), float64(assoc-best)), best
	} else {
		cands := make([]partition.Candidate, len(plan.Splits))
		preds := make([]model.PairPrediction, len(plan.Splits))
		for i, s := range plan.Splits {
			wf, wb := float64(s[0]), float64(s[1])
			if s == [2]int{} {
				wf, wb = est.SharedWays(fg, bg)
			}
			p := est.PredictPair(fg, bg, wf, wb)
			preds[i] = p
			cands[i] = partition.Candidate{
				FgWays:       s[0],
				FgSlowdown:   p.FgSlowdown,
				BgThroughput: p.BgRate * p.FgSeconds,
			}
		}
		pick := plan.Pick(cands)
		pred, fgWays = preds[pick], cands[pick].FgWays
	}
	return pairPerf{
		FgSeconds:  pred.FgSeconds,
		FgSlowdown: pred.FgSlowdown,
		BgRate:     pred.BgRate,
		FgWays:     fgWays,
		SocketW:    pred.SocketW,
		WallW:      pred.WallW,
	}
}
