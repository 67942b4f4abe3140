package scenario

import (
	"fmt"

	"repro/internal/machine"
	"repro/internal/partition"
	"repro/internal/sched"
	"repro/internal/workload"
)

// Instance is one resolved job of a planned scenario: a JobDef replica
// with its application profile, rng seed, slot grant, and (for static
// policies) LLC way range.
type Instance struct {
	App     *workload.Profile
	Role    Role
	Threads int // granted threads: request capped by profile and slots
	Loop    bool
	Seed    string
	Slots   []int
	// WayFirst/WayLim is the static LLC range [WayFirst, WayLim);
	// both zero = full cache.
	WayFirst, WayLim int
	// Declared is the job's explicitly declared way range, if any (the
	// explicit policy's input; 0,0 = none).
	Declared [2]int
}

// WaysLabel renders the instance's LLC range for reports: "all" for
// the full cache, "[first,lim)" otherwise.
func (i Instance) WaysLabel() string {
	if i.WayFirst == 0 && i.WayLim == 0 {
		return "all"
	}
	return fmt.Sprintf("[%d,%d)", i.WayFirst, i.WayLim)
}

// Plan is a scenario resolved against a platform: the effective
// machine, the expanded instances with validated placements, and the
// way ranges of the static policies. Biased and dynamic scenarios plan
// with full-cache ranges; Run assigns their splits.
type Plan struct {
	Scenario  *Scenario
	Config    machine.Config
	Overrides bool // Config differs from the runner's template
	Instances []Instance
}

func placementPolicy(name string) (machine.PlacementPolicy, error) {
	return machine.PlacementPolicyByName(name)
}

// Plan resolves the scenario against the given platform template:
// machine override, job expansion (replicas, default threads and
// seeds), placement planning, and static way assignment. Everything a
// scenario file can get wrong surfaces here as a descriptive error.
func (s *Scenario) Plan(base machine.Config) (*Plan, error) {
	if err := s.Validate(); err != nil {
		return nil, err
	}
	if s.Fleet != nil {
		return nil, fmt.Errorf("scenario %q: fleet scenarios run on the fleet layer; use 'cachepart fleet run' or fleet.RunWith", s.Name)
	}
	cfg, override := base, false
	if s.Machine.Cores > 0 && s.Machine.Cores != base.Cores {
		// A core-count override rebuilds the default platform at that
		// size; scenario machines always use the paper's geometry.
		cfg, override = machine.DefaultWithCores(s.Machine.Cores), true
	}

	// Expand replicas and assign seeds.
	type protoInst struct {
		def     *JobDef
		replica int
	}
	var protos []protoInst
	latency, others := 0, 0
	for i := range s.Jobs {
		d := &s.Jobs[i]
		for k := 0; k < d.count(); k++ {
			protos = append(protos, protoInst{def: d, replica: k})
		}
		if d.role() == RoleLatency {
			latency += d.count()
		} else {
			others += d.count()
		}
	}
	insts := make([]Instance, len(protos))
	seedsSeen := map[string]bool{}
	li, oi := 0, 0
	for i, p := range protos {
		app := workload.MustByName(p.def.App)
		threads := p.def.Threads
		if threads == 0 {
			threads = cfg.ThreadsPerCore
		}
		var seed string
		switch {
		case p.def.Seed != "" && p.def.count() == 1:
			seed = p.def.Seed
		case p.def.Seed != "":
			seed = fmt.Sprintf("%s%d", p.def.Seed, p.replica)
		case len(protos) == 1:
			seed = "single"
		case p.def.role() == RoleLatency && latency == 1:
			seed = "fg"
		case p.def.role() == RoleLatency:
			seed = fmt.Sprintf("fg%d", li)
		case others == 1:
			seed = "bg"
		default:
			seed = fmt.Sprintf("bg%d", oi)
		}
		if p.def.role() == RoleLatency {
			li++
		} else {
			oi++
		}
		key := app.Name + "/" + seed
		if seedsSeen[key] {
			return nil, fmt.Errorf("scenario %q: two instances of %s share seed %q (give replicas distinct seeds)",
				s.Name, app.Name, seed)
		}
		seedsSeen[key] = true
		insts[i] = Instance{
			App: app, Role: p.def.role(), Threads: threads,
			Loop: p.def.loops(), Seed: seed,
		}
	}

	// Placement.
	pol, err := placementPolicy(s.Placement.Policy)
	if err != nil {
		return nil, err
	}
	if pol == machine.PlaceExplicit {
		lists := make([][]int, len(protos))
		for i, p := range protos {
			if len(p.def.Slots) == 0 {
				return nil, fmt.Errorf("scenario %q: explicit placement but job %s has no slots",
					s.Name, p.def.App)
			}
			lists[i] = p.def.Slots
		}
		if err := machine.ValidateSlots(cfg, lists); err != nil {
			return nil, fmt.Errorf("scenario %q: %w", s.Name, err)
		}
		for i := range insts {
			insts[i].Slots = lists[i]
		}
	} else {
		reqs := make([]int, len(insts))
		for i := range insts {
			reqs[i] = insts[i].Threads
		}
		lists, err := machine.Plan(cfg, pol, reqs)
		if err != nil {
			return nil, fmt.Errorf("scenario %q: %w", s.Name, err)
		}
		for i := range insts {
			insts[i].Slots = lists[i]
		}
	}
	// The granted thread count is the request capped by the profile and
	// by the slot grant (over-subscribed mixes shrink).
	for i := range insts {
		t := sched.CapThreads(insts[i].App, insts[i].Threads)
		if t > len(insts[i].Slots) {
			t = len(insts[i].Slots)
		}
		insts[i].Threads = t
	}

	// Record each job's declared way range (the explicit policy's
	// input) on its instances.
	for i, p := range protos {
		if p.def.Ways != nil {
			insts[i].Declared = *p.def.Ways
		}
	}

	// Partition-policy way assignment. The policy re-validates against
	// the real geometry, then offline policies decide the static ranges
	// here; search (biased) and online (dynamic, utility) policies plan
	// with the full cache and decide at run time.
	assoc := cfg.Hier.LLC.Assoc
	ppol, err := s.Policy()
	if err != nil {
		return nil, fmt.Errorf("scenario %q: %w", s.Name, err)
	}
	plan := &Plan{Scenario: s, Config: cfg, Overrides: override, Instances: insts}
	snap := plan.snapshot()
	if err := ppol.CheckMix(snap); err != nil {
		return nil, fmt.Errorf("scenario %q: %w", s.Name, err)
	}
	if _, search := ppol.(partition.Searcher); !search && !ppol.Online() {
		masks := ppol.Decide(snap)
		if err := partition.ValidateMasks(assoc, len(insts), masks); err != nil {
			return nil, fmt.Errorf("scenario %q: %w", s.Name, err)
		}
		for i, m := range masks {
			first, lim, ok := partition.RangeOfMask(m)
			if !ok {
				return nil, fmt.Errorf("scenario %q: policy %s produced non-contiguous mask %s for job %d",
					s.Name, ppol.Name(), m, i)
			}
			insts[i].WayFirst, insts[i].WayLim = first, lim
		}
	}
	return plan, nil
}

// snapshot renders the planned instances as the policy layer's
// plan-time snapshot.
func (p *Plan) snapshot() *partition.Snapshot {
	snap := &partition.Snapshot{Assoc: p.Config.Hier.LLC.Assoc}
	snap.Jobs = make([]partition.JobView, len(p.Instances))
	for i, inst := range p.Instances {
		snap.Jobs[i] = partition.JobView{
			App:      inst.App.Name,
			Latency:  inst.Role == RoleLatency,
			Declared: inst.Declared,
		}
	}
	return snap
}

// mix builds the runnable spec from the planned instances, with an
// optional way-range override per instance (the biased search sweeps
// these) and an optional setup hook (the dynamic controller).
func (p *Plan) mix(ways [][2]int, setup func(m *machine.Machine, jobs []*machine.Job)) sched.MixSpec {
	jobs := make([]sched.MixJob, len(p.Instances))
	for i, inst := range p.Instances {
		first, lim := inst.WayFirst, inst.WayLim
		if ways != nil {
			first, lim = ways[i][0], ways[i][1]
		}
		jobs[i] = sched.MixJob{
			App: inst.App, Threads: inst.Threads, Slots: inst.Slots,
			Background: inst.Loop, Seed: inst.Seed,
			WayFirst: first, WayLim: lim,
		}
	}
	spec := sched.MixSpec{Jobs: jobs, Setup: setup}
	if p.Overrides {
		cfg := p.Config
		spec.Machine = &cfg
	}
	return spec
}

// aloneMix is instance i's baseline: the same placement and seed alone
// on the machine with the full LLC — the "versus running alone"
// reference the slowdown and weighted-speedup metrics normalize to.
func (p *Plan) aloneMix(i int) sched.MixSpec {
	inst := p.Instances[i]
	spec := sched.MixSpec{Jobs: []sched.MixJob{{
		App: inst.App, Threads: inst.Threads, Slots: inst.Slots, Seed: inst.Seed,
	}}}
	if p.Overrides {
		cfg := p.Config
		spec.Machine = &cfg
	}
	return spec
}

// splitWays returns the biased-style allocation for the whole mix: the
// latency instance (index fg) replaces in ways [0, w), every other
// instance in [w, assoc).
func (p *Plan) splitWays(fg, w int) [][2]int {
	assoc := p.Config.Hier.LLC.Assoc
	out := make([][2]int, len(p.Instances))
	for i := range out {
		if i == fg {
			out[i] = [2]int{0, w}
		} else {
			out[i] = [2]int{w, assoc}
		}
	}
	return out
}

// latencyIndex returns the index of the single latency instance
// (validated to exist for biased/dynamic policies).
func (p *Plan) latencyIndex() int {
	for i, inst := range p.Instances {
		if inst.Role == RoleLatency {
			return i
		}
	}
	panic("scenario: no latency instance (Validate should have rejected this)")
}

// Compile builds the runnable, memoizable spec for an offline-policy
// scenario (shared, fair, explicit). Search and online policies need
// the engine to sweep or monitor — run them with Run, or batch an
// online mix through CompileOnline.
func (s *Scenario) Compile(base machine.Config) (sched.MixSpec, error) {
	p, err := s.Plan(base)
	if err != nil {
		return sched.MixSpec{}, err
	}
	pol, err := s.Policy()
	if err != nil {
		return sched.MixSpec{}, fmt.Errorf("scenario %q: %w", s.Name, err)
	}
	if _, search := pol.(partition.Searcher); search || pol.Online() {
		return sched.MixSpec{}, fmt.Errorf("scenario %q: the %s policy is engine-driven; use scenario.Run",
			s.Name, pol.Name())
	}
	return p.mix(nil, nil), nil
}

// CompileOnline builds the loop-attached spec of an online-policy
// scenario (dynamic, utility, ...): the mix plus a setup hook that
// attaches the policy's decision loop at the engine-conventional
// sampling interval. With lp nil the spec is memoizable, keyed by the
// policy's RunKey, so identical policy runs dedup and disk-cache like
// any other shape; passing lp (receiving each attached run's live
// loop, for its MPKI/allocation time series) keeps the run
// non-memoized, since a cached result could not carry the series.
// Drivers use this to batch many online runs in one engine fan-out;
// scenario.Run uses it internally.
func (s *Scenario) CompileOnline(base machine.Config, scale float64, lp **partition.Loop) (sched.MixSpec, error) {
	p, err := s.Plan(base)
	if err != nil {
		return sched.MixSpec{}, err
	}
	pol, err := s.Policy()
	if err != nil {
		return sched.MixSpec{}, fmt.Errorf("scenario %q: %w", s.Name, err)
	}
	if !pol.Online() {
		return sched.MixSpec{}, fmt.Errorf("scenario %q: CompileOnline on offline policy %s", s.Name, pol.Name())
	}
	return p.onlineMix(pol, scale, lp), nil
}

// onlineMix builds the loop-attached mix of a planned online-policy
// scenario.
func (p *Plan) onlineMix(pol partition.Policy, scale float64, lp **partition.Loop) sched.MixSpec {
	interval := partition.SamplingInterval(p.intervalAnchor(), scale)
	insts := p.Instances
	latency := make([]bool, len(insts))
	for i := range insts {
		latency[i] = insts[i].Role == RoleLatency
	}
	mix := p.mix(nil, func(m *machine.Machine, jobs []*machine.Job) {
		ljs := make([]partition.LoopJob, len(jobs))
		for i, j := range jobs {
			ljs[i] = partition.LoopJob{
				Job: j, Cores: j.Cores(), App: insts[i].App.Name,
				Latency: insts[i].Role == RoleLatency, Declared: insts[i].Declared,
			}
		}
		loop := partition.AttachLoop(m, ljs, pol, interval)
		if lp != nil {
			*lp = loop
		}
	})
	if lp == nil {
		mix.PolicyKey = partition.RunKey(pol, interval, latency)
	}
	return mix
}

// intervalAnchor picks the profile the sampling interval is derived
// from: the single latency job when there is one (the §6 convention),
// else the first terminating job (whose completion ends the window).
func (p *Plan) intervalAnchor() *workload.Profile {
	lat, n := -1, 0
	for i, inst := range p.Instances {
		if inst.Role == RoleLatency {
			lat, n = i, n+1
		}
	}
	if n == 1 {
		return p.Instances[lat].App
	}
	for _, inst := range p.Instances {
		if !inst.Loop {
			return inst.App
		}
	}
	return p.Instances[0].App
}
