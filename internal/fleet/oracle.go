package fleet

import (
	"fmt"
	"slices"

	"repro/internal/machine"
	"repro/internal/obs"
	"repro/internal/partition"
	"repro/internal/sched"
	"repro/internal/workload"
)

// alonePerf is one application running alone on a machine's half —
// the request service-time baseline and the single-occupant power
// state.
type alonePerf struct {
	Seconds float64 // one run to completion
	SocketW float64 // socket watts while running
	WallW   float64 // wall watts while running
}

// pairPerf is a co-location: a latency request on the front half with
// a batch occupant looping on the back half, under the fleet's
// partition mode.
type pairPerf struct {
	FgSeconds  float64 // request service time co-located
	FgSlowdown float64 // FgSeconds / alone seconds
	BgRate     float64 // batch iterations per second while co-located
	FgWays     int     // protective split chosen (0 = unpartitioned)
	SocketW    float64 // socket watts while co-running
	WallW      float64
	Reallocs   int // dynamic-controller reallocations per episode
}

// oracle holds every simulation-derived number the event loop needs.
// It is built once per fleet run by fanning all required
// single-machine simulations through the sched engine as one batch:
// the alone baselines plus each co-location's runs under the partition
// policy's pair plan (a way sweep, a static split, or one
// controller-driven episode). All memoizable specs use the canonical
// mix shapes, so a fleet run deduplicates against pair/single runs any
// other driver has done.
type oracle struct {
	cfg machine.Config
	// pinned is cfg when it differs from the runner's template, which
	// every mix must then carry; nil otherwise.
	pinned *machine.Config
	plan   partition.PairPlan

	idleSocketW float64
	idleWallW   float64

	alone map[string]alonePerf
	pair  map[string]pairPerf

	// fid is the tier that built the pair table; predicted/resimmed
	// count its co-locations per source (both zero under exact).
	fid       Fidelity
	predicted int
	resimmed  int
}

func pairKey(fg, bg string) string { return fg + "\x00" + bg }

// pin lays a canonical mix onto the fleet's platform: a mix built on a
// platform other than the runner's template must carry it, which also
// keys it apart from the template's runs.
func (o *oracle) pin(mix sched.MixSpec) sched.MixSpec {
	mix.Machine = o.pinned
	return mix
}

// buildOracle plans and executes every simulation the fleet run needs
// as one engine batch. Its work is traced under an "oracle" span below
// parent, with the exact tier's batch labeled "oracle" and the
// analytic tiers' probe/predict/resim structure under buildFast.
func buildOracle(r *sched.Runner, d *Def, parent obs.SpanID) (*oracle, error) {
	osp := r.Tracer().Start("oracle", parent,
		obs.String("fidelity", string(d.fidelity())),
		obs.String("partition", d.partition()))
	// End is idempotent: error paths end the span bare, the success
	// path ends it with pair-table attrs first.
	defer osp.End()
	cfg := r.MachineConfig()
	var pinned *machine.Config
	if d.Cores > 0 && d.Cores != cfg.Cores {
		cfg = machine.DefaultWithCores(d.Cores)
		pinned = &cfg
	}
	if cfg.Cores < 2 || cfg.Cores%2 != 0 {
		return nil, fmt.Errorf("fleet: machines need an even core count >= 2, got %d", cfg.Cores)
	}
	pol, err := d.policy()
	if err != nil {
		return nil, err
	}
	// The pair plan re-checks the policy against the real LLC geometry,
	// turning bad assoc-dependent params (e.g. utility min_ways too
	// large) into a descriptive error instead of a mid-run panic.
	plan, err := partition.PlanPair(pol, cfg.Hier.LLC.Assoc)
	if err != nil {
		return nil, fmt.Errorf("fleet: partition mode %s: %w", d.partition(), err)
	}

	o := &oracle{
		cfg: cfg, pinned: pinned, plan: plan,
		idleSocketW: cfg.Energy.IdlePowerSocket(cfg.Cores),
		idleWallW:   cfg.Energy.IdlePowerWall(cfg.Cores),
		alone:       map[string]alonePerf{},
		pair:        map[string]pairPerf{},
		fid:         FidelityExact,
	}

	fgs, bgs := d.fgApps(), d.bgApps()
	// Timeline batch-arrivals can introduce apps the declared backlog
	// never mentions; the oracle must price them too. The exact tier
	// plans them as a separate "replace" batch so traces attribute the
	// recovery work; the analytic tiers just fold them into the pool.
	inBgs := map[string]bool{}
	for _, name := range bgs {
		inBgs[name] = true
	}
	var evBgs []string
	for _, name := range d.eventApps() {
		if !inBgs[name] {
			evBgs = append(evBgs, name)
		}
	}
	apps := map[string]*workload.Profile{}
	for _, name := range append(append(append([]string{}, fgs...), bgs...), evBgs...) {
		apps[name] = workload.MustByName(name)
	}

	if fid := d.fidelity(); fid != FidelityExact {
		// The analytic tiers replace the per-pair simulations with MRC
		// predictions (re-simulating borderline pairs under auto); the
		// alone baselines stay exact in every tier.
		if err := o.buildFast(r, d, fgs, append(append([]string{}, bgs...), evBgs...), apps, fid, osp.ID()); err != nil {
			return nil, err
		}
		osp.End(obs.Int("alone", len(o.alone)), obs.Int("pairs", len(o.pair)))
		return o, nil
	}

	o.simulate(r, osp.ID(), "oracle", apps, append(append([]string{}, fgs...), bgs...), crossPairs(fgs, bgs))
	// Event-only apps get their own "replace" batch: the alone baseline
	// (unless an arrival class already priced it) plus one pair per
	// request class, so re-placement after churn dedups against the
	// initial batch through the same memo keys.
	if len(evBgs) > 0 {
		o.simulate(r, osp.ID(), "replace", apps, evBgs, crossPairs(fgs, evBgs))
	}
	osp.End(obs.Int("alone", len(o.alone)), obs.Int("pairs", len(o.pair)))
	return o, nil
}

// crossPairs lists every (fg, bg) co-location, fg-major.
func crossPairs(fgs, bgs []string) [][2]string {
	out := make([][2]string, 0, len(fgs)*len(bgs))
	for _, fg := range fgs {
		for _, bg := range bgs {
			out = append(out, [2]string{fg, bg})
		}
	}
	return out
}

// simulate runs one exact batch, traced under phase: the alone
// baseline of every listed app not yet priced, then each listed pair's
// runs under the pair plan, harvested into the oracle's tables. The
// initial batch, the event-only apps' replace batch, and auto's resim
// batch all run through it, so every tier prices a pair identically.
func (o *oracle) simulate(r *sched.Runner, span obs.SpanID, phase string, apps map[string]*workload.Profile, alones []string, pairs [][2]string) {
	var specs []sched.Spec
	var priced []string // spec i is priced[i]'s alone baseline
	for _, name := range alones {
		if _, have := o.alone[name]; have || slices.Contains(priced, name) {
			continue
		}
		priced = append(priced, name)
		specs = append(specs, o.pin(sched.HalfAlone(o.cfg, apps[name])))
	}
	pairAt := make([]int, len(pairs))
	for i, p := range pairs {
		pairAt[i] = len(specs)
		for _, mix := range o.plan.Specs(o.cfg, r.Scale(), apps[p[0]], apps[p[1]]) {
			specs = append(specs, o.pin(mix))
		}
	}

	results := r.RunBatchIn(sched.BatchInfo{Span: span, Phase: phase}, specs)
	for i, name := range priced {
		o.alone[name] = alonePerfOf(results[i])
	}
	for i, p := range pairs {
		fgAlone := o.alone[p[0]].Seconds
		out := o.plan.Harvest(results[pairAt[i]:], fgAlone)
		res := out.Result
		o.pair[pairKey(p[0], p[1])] = pairPerf{
			FgSeconds:  res.Jobs[0].Seconds,
			FgSlowdown: res.Jobs[0].Seconds / fgAlone,
			BgRate:     rate(res.Jobs[1].Iterations, res.WindowSeconds),
			FgWays:     out.FgWays,
			SocketW:    watts(res.Energy.SocketJoules, res.WindowSeconds),
			WallW:      watts(res.Energy.WallJoules, res.WindowSeconds),
			Reallocs:   out.Reallocations,
		}
	}
}

// alonePerfOf reads an alone baseline out of its run.
func alonePerfOf(res *machine.Result) alonePerf {
	return alonePerf{
		Seconds: res.Jobs[0].Seconds,
		SocketW: watts(res.Energy.SocketJoules, res.WindowSeconds),
		WallW:   watts(res.Energy.WallJoules, res.WindowSeconds),
	}
}

// powerState returns the socket/wall power of a machine in the given
// occupancy state ("" = that half is empty).
func (o *oracle) powerState(fgApp, bgApp string) (socketW, wallW float64) {
	switch {
	case fgApp == "" && bgApp == "":
		return o.idleSocketW, o.idleWallW
	case fgApp != "" && bgApp != "":
		p := o.pair[pairKey(fgApp, bgApp)]
		return p.SocketW, p.WallW
	case fgApp != "":
		a := o.alone[fgApp]
		return a.SocketW, a.WallW
	default:
		a := o.alone[bgApp]
		return a.SocketW, a.WallW
	}
}

func watts(joules, seconds float64) float64 {
	if seconds <= 0 {
		return 0
	}
	return joules / seconds
}

func rate(iters, seconds float64) float64 {
	if seconds <= 0 {
		return 0
	}
	return iters / seconds
}
