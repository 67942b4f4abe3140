package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"repro/internal/core"
	"repro/internal/fleet"
	"repro/internal/loadgen"
	"repro/internal/machine"
	"repro/internal/model"
	"repro/internal/obs"
	"repro/internal/scenario"
	"repro/internal/sched"
	"repro/internal/workload"
)

// probeInput is a workload's own inputs, as the layer probes consume
// them.
type probeInput struct {
	apps     []string // simulator-core probe applications, latency first
	fg, bg   []string // model probe pairs: every fg beside every bg
	specs    [][]byte // scenario.Parse probe
	runSpecs [][]byte // Session.RunSpec probe
	pmix     *scenario.Scenario
	pscale   float64      // scale the partition probe simulates pmix at
	fleets   []*fleet.Def // loadgen probe
}

func mixProbe(seed int64, smoke bool) (*probeInput, error) {
	s, err := mixInput(seed)
	if err != nil {
		return nil, err
	}
	in := &probeInput{pmix: s, pscale: mixScale(smoke)}
	for _, j := range s.Jobs {
		in.apps = append(in.apps, j.App)
		if j.Role == scenario.RoleLatency {
			in.fg = append(in.fg, j.App)
		} else {
			in.bg = append(in.bg, j.App)
		}
	}
	b, err := json.Marshal(s)
	if err != nil {
		return nil, err
	}
	fair := *s
	fair.Partition.Policy = scenario.PolicyRef{Name: scenario.PartitionFair}
	rb, err := json.Marshal(&fair)
	if err != nil {
		return nil, err
	}
	in.specs, in.runSpecs = [][]byte{b}, [][]byte{rb}
	return in, nil
}

func fleetProbe(file string, seed int64) (*probeInput, error) {
	s, err := fleetInput(file, seed)
	if err != nil {
		return nil, err
	}
	b, err := json.Marshal(s)
	if err != nil {
		return nil, err
	}
	in := &probeInput{specs: [][]byte{b}, runSpecs: [][]byte{b}, pscale: sched.QuickScale, fleets: []*fleet.Def{s.Fleet}}
	for _, a := range s.Fleet.Arrivals {
		in.fg = append(in.fg, a.App)
	}
	for _, bl := range s.Fleet.Backlog {
		in.bg = append(in.bg, bl.App)
	}
	in.apps = append(append([]string{}, in.fg...), in.bg...)
	in.pmix = pairScenario(in.fg[0], in.bg[0], seed)
	return in, nil
}

func fleetExactProbe(seed int64, _ bool) (*probeInput, error) {
	return fleetProbe("fleet-consolidation-50.json", seed)
}

func fleetAutoProbe(seed int64, _ bool) (*probeInput, error) {
	return fleetProbe("fleet-mega-10k.json", seed)
}

func serveProbe(seed int64, _ bool) (*probeInput, error) {
	shipped, err := readShipped()
	if err != nil {
		return nil, err
	}
	in := &probeInput{
		apps:   []string{freshLatency[0], freshLatency[1], freshBatch[0], freshBatch[1]},
		fg:     freshLatency,
		bg:     freshBatch,
		pmix:   pairScenario(freshLatency[0], freshBatch[0], seed),
		pscale: sched.QuickScale,
	}
	for _, f := range servedSpecs {
		in.specs = append(in.specs, shipped[f].body)
		in.runSpecs = append(in.runSpecs, shipped[f].body)
		if sc := shipped[f].sc; sc.IsFleet() {
			in.fleets = append(in.fleets, sc.Fleet)
		}
	}
	for _, q := range serveInput(seed, serveRate, time.Second, shipped) {
		if q.fresh {
			in.specs = append(in.specs, q.body)
		}
	}
	return in, nil
}

// pairScenario is a latency job beside a looping batch job, the mix the
// partition probe runs for workloads without a mix of their own.
func pairScenario(latency, batch string, seed int64) *scenario.Scenario {
	var s scenario.Scenario
	if err := json.Unmarshal(freshMix("probe-pair-"+seedLabel(seed), latency, batch), &s); err != nil {
		panic(err) // freshMix marshals this very type
	}
	return &s
}

// probeSizes sets how much work each probe replays.
type probeSizes struct {
	epochs int // simulator-core epochs per application
	reps   int // repetitions of the cheap probes
}

func sizes(smoke bool) probeSizes {
	if smoke {
		return probeSizes{epochs: 4, reps: 2}
	}
	return probeSizes{epochs: 48, reps: 20}
}

// runProbes runs every layer probe on the workload's own inputs and
// records its metrics in oc.layer, wrapping each in a span.
func runProbes(d workloadDef, o options, tr *obs.Tracer, oc *outcome, live *core.Session) error {
	in, err := d.probe(o.seed, o.smoke)
	if err != nil {
		return fmt.Errorf("probe inputs: %w", err)
	}
	if oc.layer == nil {
		oc.layer = map[string]float64{}
	}
	l := oc.layer
	sz := sizes(o.smoke)
	timed := func(name string, fn func() error) error {
		sp := tr.Start("bench/probe/"+name, 0)
		defer sp.End()
		return fn()
	}
	apps, err := profiles(in.apps)
	if err != nil {
		return err
	}

	var rec *coreProbe
	timed("core-record", func() error { rec = recordCore(apps, o.seed, sz.epochs); return nil })
	check := func(name string, fn func() error) {
		if err := timed(name, fn); err != nil {
			oc.fail("%v", err)
		}
	}
	check("trace", func() (err error) { l["trace.fill_ns_per_ref"], err = rec.timeTrace(); return err })
	check("prefetch", func() (err error) { l["prefetch.observe_ns"], err = rec.timePrefetch(); return err })
	check("cache", func() error {
		ct, err := rec.timeCache()
		l["cache.access_ns"], l["cache.miss_path_ns"], l["cache.prefetch_fill_ns"] = ct.access, ct.miss, ct.fill
		return err
	})
	check("umon", func() error { l["cache.umon_access_ns"] = rec.timeUMON(); return nil })
	check("memory-interconnect", func() error {
		l["memory.step_ns"], l["interconnect.step_ns"] = rec.timeSteps(50 * sz.reps)
		return nil
	})
	check("partition-decide", func() (err error) { l["partition.decide_ns"], err = rec.timeDecide(sz.reps); return err })
	l["prefetch.issued_per_kref"] = 1000 * float64(rec.fills) / float64(max(rec.demand, 1))
	l["cache.l1d_miss_frac"], l["cache.llc_miss_frac"] = rec.missFracs()

	if err := timed("partition-overhead", func() error { return partitionProbe(in.pmix, in.pscale, tr, l) }); err != nil {
		return err
	}
	store := filepath.Join(o.out, fmt.Sprintf("probe-store-%d", os.Getpid()))
	if err := timed("sched", func() error { return schedProbe(apps[0], store, sz.reps, l, oc) }); err != nil {
		return err
	}
	if err := timed("model", func() error { return modelProbe(in.fg, in.bg, sz.reps, l) }); err != nil {
		return err
	}
	if err := timed("scenario-parse", func() error { return parseProbe(in.specs, 10*sz.reps, l) }); err != nil {
		return err
	}
	if err := timed("loadgen", func() error { return loadgenProbe(in.fleets, sz.reps, l) }); err != nil {
		return err
	}
	return timed("core-run-spec", func() error { return runSpecProbe(in.runSpecs, live, sz.reps, l) })
}

func profiles(names []string) ([]*workload.Profile, error) {
	var out []*workload.Profile
	for _, n := range names {
		p, err := workload.ByName(n)
		if err != nil {
			return nil, err
		}
		out = append(out, p)
	}
	return out, nil
}

// partitionProbe runs the workload's mix under each of mixPolicies one
// simulation at a time and compares host time per simulated
// instruction of the online loops against the offline splits.
func partitionProbe(s *scenario.Scenario, scale float64, tr *obs.Tracer, l map[string]float64) error {
	r := sched.New(sched.Options{Scale: scale, DisableCache: true, Parallelism: 1})
	specs, err := compileMix(r, s)
	if err != nil {
		return err
	}
	var secs, instr [2]float64 // offline, online
	reallocs := 0
	for i, spec := range specs {
		sp := tr.Start("bench/probe/partition/"+mixPolicies[i], 0)
		t0 := time.Now()
		res := r.Run(spec)
		d := time.Since(t0).Seconds()
		sp.End()
		k := 0
		if res.Partition != nil {
			k = 1
			reallocs += res.Partition.Reallocations
		}
		secs[k] += d
		for _, j := range res.Jobs {
			instr[k] += j.Instructions
		}
	}
	if instr[0] > 0 && instr[1] > 0 {
		l["partition.online_overhead_frac"] = (secs[1]/instr[1])/(secs[0]/instr[0]) - 1
	}
	l["partition.reallocs"] = float64(reallocs)
	l["machine.ns_per_kinstr"] = (secs[0] + secs[1]) * 1e9 / ((instr[0] + instr[1]) / 1000)
	return nil
}

// schedProbe times a memo hit (RunMix on a memoised key) and a disk hit
// (a fresh runner over a warm CacheDir).
func schedProbe(app *workload.Profile, dir string, reps int, l map[string]float64, oc *outcome) error {
	r := sched.New(sched.Options{Scale: sched.QuickScale})
	spec := aloneMix(app, r.MachineConfig())
	r.RunMix(spec)
	hits := 100 * reps
	t0 := time.Now()
	for i := 0; i < hits; i++ {
		r.RunMix(spec)
	}
	l["sched.memo_hit_us"] = float64(time.Since(t0).Nanoseconds()) / 1e3 / float64(hits)
	if got := r.Stats().MemoHits; got != uint64(hits) {
		oc.fail("sched probe: %d memo hits, want %d", got, hits)
	}

	if err := os.RemoveAll(dir); err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	// One key per LLC way limit, so every RunMix on a fresh runner is a
	// disk hit.
	var specs []sched.Spec
	for w := 1; w <= r.MachineConfig().Hier.LLC.Assoc; w++ {
		s := aloneMix(app, r.MachineConfig())
		s.Jobs[0].WayLim = w
		specs = append(specs, s)
	}
	sched.New(sched.Options{Scale: sched.QuickScale, CacheDir: dir}).RunBatch(specs)
	var samples []float64
	for i := 0; i < max(reps/4, 1); i++ {
		fr := sched.New(sched.Options{Scale: sched.QuickScale, CacheDir: dir})
		for _, s := range specs {
			t0 := time.Now()
			fr.RunMix(s.(sched.MixSpec))
			samples = append(samples, float64(time.Since(t0).Nanoseconds())/1e3)
		}
		if st := fr.Stats(); st.DiskHits != uint64(len(specs)) || st.Simulations != 0 {
			oc.fail("sched probe: %d disk hits and %d simulations, want %d and 0", st.DiskHits, st.Simulations, len(specs))
		}
	}
	l["sched.disk_hit_us"] = median(samples)
	return nil
}

// aloneMix is an application alone on the front half of the machine,
// the fleet's baseline shape.
func aloneMix(app *workload.Profile, cfg machine.Config) sched.MixSpec {
	threads := sched.CapThreads(app, cfg.Cores/2*cfg.ThreadsPerCore)
	slots := make([]int, threads)
	for i := range slots {
		slots[i] = i
	}
	return sched.MixSpec{Jobs: []sched.MixJob{{App: app, Threads: threads, Slots: slots, Seed: "single"}}}
}

// modelProbe profiles the workload's applications and times
// Estimator.PredictPair over its pairs at every way split.
func modelProbe(fg, bg []string, reps int, l map[string]float64) error {
	r := sched.New(sched.Options{Scale: sched.QuickScale})
	cfg := r.MachineConfig()
	prof := map[string]*model.Profile{}
	for _, name := range append(append([]string{}, fg...), bg...) {
		if prof[name] != nil {
			continue
		}
		app, err := workload.ByName(name)
		if err != nil {
			return err
		}
		spec := aloneMix(app, cfg)
		spec.Setup, spec.ProbeKey = model.ProbeSetup(), model.ProbeKey()
		p, err := model.NewProfile(name, app.MLP, r.RunMix(spec), 0, cfg)
		if err != nil {
			return err
		}
		prof[name] = p
	}
	est := model.NewEstimator(cfg)
	assoc := est.Assoc()
	calls := 0
	sink := 0.0
	t0 := time.Now()
	for i := 0; i < 10*reps; i++ {
		for _, f := range fg {
			for _, b := range bg {
				for w := 1; w < assoc; w++ {
					sink += est.PredictPair(prof[f], prof[b], float64(w), float64(assoc-w)).FgSlowdown
					calls++
				}
			}
		}
	}
	d := time.Since(t0)
	if !(sink > 0) {
		return fmt.Errorf("model probe: degenerate predictions")
	}
	l["model.predict_pair_ns"] = float64(d.Nanoseconds()) / float64(max(calls, 1))
	return nil
}

func parseProbe(specs [][]byte, reps int, l map[string]float64) error {
	t0 := time.Now()
	for i := 0; i < reps; i++ {
		for _, b := range specs {
			if _, err := scenario.Parse(b); err != nil {
				return fmt.Errorf("parse probe: %w", err)
			}
		}
	}
	l["scenario.parse_us"] = float64(time.Since(t0).Nanoseconds()) / 1e3 / float64(max(reps*len(specs), 1))
	return nil
}

// loadgenProbe times generating the workload's fleet arrival traces
// (0 for a workload without one).
func loadgenProbe(defs []*fleet.Def, reps int, l map[string]float64) error {
	if len(defs) == 0 {
		return nil
	}
	t0 := time.Now()
	for i := 0; i < reps; i++ {
		for _, d := range defs {
			seed := d.Seed
			if seed == "" {
				seed = "fleet"
			}
			if _, err := loadgen.Arrivals(d.Arrivals, d.Duration, seed); err != nil {
				return fmt.Errorf("loadgen probe: %w", err)
			}
		}
	}
	l["loadgen.arrivals_ms"] = float64(time.Since(t0).Nanoseconds()) / 1e6 / float64(reps)
	return nil
}

// runSpecProbe times Session.RunSpec on warm specs, without HTTP: on
// the live session when there is one (serve's, already warm), else on a
// fresh quick session warmed with one run of each spec.
func runSpecProbe(specs [][]byte, live *core.Session, reps int, l map[string]float64) error {
	sess := live
	if sess == nil {
		var err error
		if sess, err = core.NewSession(core.RunConfig{Quick: true}); err != nil {
			return err
		}
		for _, b := range specs {
			if _, err := sess.RunSpec(b, core.RunConfig{}); err != nil {
				return fmt.Errorf("run-spec probe: %w", err)
			}
		}
	}
	var samples []float64
	for i := 0; i < max(reps/4, 1); i++ {
		for _, b := range specs {
			t0 := time.Now()
			if _, err := sess.RunSpec(b, core.RunConfig{}); err != nil {
				return fmt.Errorf("run-spec probe: %w", err)
			}
			samples = append(samples, float64(time.Since(t0).Nanoseconds())/1e6)
		}
	}
	l["core.run_spec_ms"] = median(samples)
	return nil
}
