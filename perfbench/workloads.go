package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"time"

	"repro/internal/fleet"
	"repro/internal/obs"
	"repro/internal/scenario"
	"repro/internal/sched"
)

// workloadDef is one benchmark workload. Operation workloads (mix and
// the fleets) supply setup and share runOps; serve supplies its own
// run.
type workloadDef struct {
	name string
	// work names what work_per_s counts on this workload.
	work string
	// setup builds an instance ready for timed operations; tr is nil
	// for untraced instances.
	setup func(seed int64, smoke bool, tr *obs.Tracer) (instance, error)
	// golden is the committed report the default-seed operation must
	// reproduce byte for byte ("" = no golden).
	golden string
	// probe describes the workload's own inputs to the layer probes.
	probe func(seed int64, smoke bool) (*probeInput, error)
	// run replaces runOps (serve).
	run func(d workloadDef, o options) (*outcome, error)
}

var workloadDefs = []workloadDef{
	{name: "mix", work: "simulated Minstr", setup: setupMix, probe: mixProbe},
	{name: "fleet-exact", work: "placements", setup: setupFleetExact, probe: fleetExactProbe,
		golden: "fleet50_quick.golden"},
	{name: "fleet-auto", work: "placements", setup: setupFleetAuto, probe: fleetAutoProbe,
		golden: "fleet_mega10k_quick.golden"},
	{name: "serve", work: "requests within " + serveLimit.String(), probe: serveProbe, run: runServe},
}

func workloadNames() []string {
	var out []string
	for _, d := range workloadDefs {
		out = append(out, d.name)
	}
	return out
}

func lookupWorkload(name string) (workloadDef, bool) {
	for _, d := range workloadDefs {
		if d.name == name {
			return d, true
		}
	}
	return workloadDef{}, false
}

// instance is a set-up workload whose operations the harness times.
type instance interface {
	op(parent obs.SpanID) (opOut, error)
}

// opOut is what one operation produced.
type opOut struct {
	work   float64     // work_per_s numerator
	report []byte      // the bytes the digest covers (a fleet's report text)
	delta  sched.Stats // engine counter movement
	fleet  *fleet.Report
}

// ---- mix ----

type mixInstance struct {
	r     *sched.Runner
	specs []sched.Spec
}

// mixPolicies are the four partition policies the mix operation runs:
// two offline splits compiled with Compile, two online loops compiled
// with CompileOnline.
var mixPolicies = []string{scenario.PartitionShared, scenario.PartitionFair, scenario.PartitionDynamic, scenario.PartitionUtility}

func mixScale(smoke bool) float64 {
	if smoke {
		return sched.QuickScale
	}
	return sched.DefaultScale
}

func setupMix(seed int64, smoke bool, tr *obs.Tracer) (instance, error) {
	s, err := mixInput(seed)
	if err != nil {
		return nil, err
	}
	r := sched.New(sched.Options{Scale: mixScale(smoke), DisableCache: true, Tracer: tr})
	specs, err := compileMix(r, s)
	if err != nil {
		return nil, err
	}
	return &mixInstance{r: r, specs: specs}, nil
}

// compileMix compiles the scenario under each of mixPolicies.
func compileMix(r *sched.Runner, s *scenario.Scenario) ([]sched.Spec, error) {
	var specs []sched.Spec
	for _, p := range mixPolicies {
		c := *s
		c.Partition.Policy = scenario.PolicyRef{Name: p}
		var spec sched.MixSpec
		var err error
		if p == scenario.PartitionDynamic || p == scenario.PartitionUtility {
			spec, err = c.CompileOnline(r.MachineConfig(), r.Scale(), nil)
		} else {
			spec, err = c.Compile(r.MachineConfig())
		}
		if err != nil {
			return nil, fmt.Errorf("compile %s: %w", p, err)
		}
		specs = append(specs, spec)
	}
	return specs, nil
}

func (m *mixInstance) op(parent obs.SpanID) (opOut, error) {
	before := m.r.Stats()
	res := m.r.RunBatchIn(sched.BatchInfo{Span: parent}, m.specs)
	out := opOut{delta: m.r.Stats().Delta(before)}
	for i, x := range res {
		if x == nil || len(x.Jobs) != 4 {
			return out, fmt.Errorf("mix result %d lost a job", i)
		}
		online := i >= 2
		if online != (x.Partition != nil) {
			return out, fmt.Errorf("mix result %d (%s): partition trace presence %v", i, mixPolicies[i], x.Partition != nil)
		}
		for _, j := range x.Jobs {
			if !(j.Instructions > 0) {
				return out, fmt.Errorf("mix result %d job %s retired no instructions", i, j.Name)
			}
			out.work += j.Instructions / 1e6
		}
	}
	b, err := json.Marshal(res)
	if err != nil {
		return out, err
	}
	out.report = b
	return out, nil
}

// ---- fleet-exact ----

type fleetExactInstance struct {
	s  *scenario.Scenario
	tr *obs.Tracer
}

func setupFleetExact(seed int64, smoke bool, tr *obs.Tracer) (instance, error) {
	s, err := fleetInput("fleet-consolidation-50.json", seed)
	if err != nil {
		return nil, err
	}
	return &fleetExactInstance{s: s, tr: tr}, nil
}

// op is one cold fleet run: a fresh runner with the memo on and no
// disk store.
func (f *fleetExactInstance) op(parent obs.SpanID) (opOut, error) {
	r := sched.New(sched.Options{Scale: sched.QuickScale, Tracer: f.tr})
	return fleetOp(r, f.s, parent)
}

func fleetOp(r *sched.Runner, s *scenario.Scenario, parent obs.SpanID) (opOut, error) {
	before := r.Stats()
	rep, err := fleet.RunWith(r, s.Name, s.Fleet, fleet.RunOpts{Parent: parent})
	if err != nil {
		return opOut{}, err
	}
	return opOut{
		work:   float64((rep.Requests + rep.Backlog) * len(rep.Results)),
		report: []byte(rep.String()),
		delta:  r.Stats().Delta(before),
		fleet:  rep,
	}, nil
}

// ---- fleet-auto ----

type fleetAutoInstance struct {
	r *sched.Runner
	s *scenario.Scenario
}

// setupFleetAuto warms a runner's memo with one full run, so every
// timed operation replays from memo hits.
func setupFleetAuto(seed int64, smoke bool, tr *obs.Tracer) (instance, error) {
	s, err := fleetInput("fleet-mega-10k.json", seed)
	if err != nil {
		return nil, err
	}
	r := sched.New(sched.Options{Scale: sched.QuickScale, Tracer: tr})
	warm := tr.Start("bench/warm-up", 0)
	_, err = fleet.RunWith(r, s.Name, s.Fleet, fleet.RunOpts{Parent: warm.ID()})
	warm.End()
	if err != nil {
		return nil, err
	}
	return &fleetAutoInstance{r: r, s: s}, nil
}

func (f *fleetAutoInstance) op(parent obs.SpanID) (opOut, error) {
	return fleetOp(f.r, f.s, parent)
}

// ---- the operation harness ----

// outcome is everything one workload run measured.
type outcome struct {
	setup     []float64 // seconds per setup repetition
	opSecs    []float64 // untraced operation (or request) latencies
	workRate  float64   // work_per_s
	peakMB    float64
	attempted int
	failed    int
	problems  []string // output-check failures
	digest    string
	layer     map[string]float64 // traced runs only
	lines     []string           // workload-specific summary lines
}

func (oc *outcome) fail(format string, args ...any) {
	oc.failed++
	oc.problems = append(oc.problems, fmt.Sprintf(format, args...))
}

// timeSetup sets the workload up repeatedly and keeps the last
// instance; setup_s is the median of the per-set-up times it returns.
// The first sample is the first set-up alone, which pays one-time
// costs. Each later sample is the mean of a batch of set-ups lasting at
// least 20 ms, so a set-up of microseconds is not one clock reading.
// Sampling stops at 21 samples, or at three once set-ups have run for a
// second (after one sample in smoke mode).
func timeSetup[T any](smoke bool, setup func() (T, error), discard func(T)) (T, []float64, error) {
	var inst T
	var secs []float64
	have := false
	var total time.Duration
	for len(secs) < 21 && (len(secs) < 3 || total < time.Second) {
		var batch time.Duration
		n := 0
		for n == 0 || (len(secs) > 0 && batch < 20*time.Millisecond) {
			if have && discard != nil {
				discard(inst)
			}
			t0 := time.Now()
			v, err := setup()
			batch += time.Since(t0)
			n++
			if err != nil {
				return inst, secs, err
			}
			inst, have = v, true
		}
		total += batch
		secs = append(secs, batch.Seconds()/float64(n))
		if smoke {
			break
		}
	}
	return inst, secs, nil
}

// opWindow is the per-operation record of one timed window.
type opWindow struct {
	secs   []float64 // host seconds per operation
	lat    []float64 // the same, scaled to the nominal operation size
	work   []float64 // work per host second
	outs   []opOut
	spans  []obs.SpanID
	peakMB float64
}

// runWindow times operations until the window has elapsed (at least
// one). With nominal > 0, each operation's latency is scaled to that
// much work, so a seed that makes the input larger or smaller does not
// move op_p50_ms. Output checks are the caller's.
func runWindow(inst instance, window time.Duration, nominal float64, tr *obs.Tracer, oc *outcome) opWindow {
	var win opWindow
	mem := startMemSampler()
	start := time.Now()
	for i := 0; i == 0 || time.Since(start) < window; i++ {
		sp := tr.Start("bench/op", 0, obs.Int("op", i))
		t0 := time.Now()
		out, err := inst.op(sp.ID())
		d := time.Since(t0).Seconds()
		sp.End()
		oc.attempted++
		if err != nil {
			oc.fail("operation %d: %v", i, err)
			continue
		}
		win.secs = append(win.secs, d)
		lat := d
		if nominal > 0 && out.work > 0 {
			lat *= nominal / out.work
		}
		win.lat = append(win.lat, lat)
		win.work = append(win.work, out.work/d)
		win.outs = append(win.outs, out)
		win.spans = append(win.spans, sp.ID())
	}
	win.peakMB = mem.Stop()
	return win
}

// checkDigests requires every operation's digest to equal want (the
// first operation's when want is empty) and returns the digest.
func checkDigests(outs []opOut, want string, oc *outcome) string {
	for i, out := range outs {
		d := digest(out.report)
		if want == "" {
			want = d
		} else if d != want {
			oc.fail("operation %d digest %s differs from %s", i, d, want)
		}
	}
	return want
}

// checkGolden compares a report with the committed golden file.
func checkGolden(name string, got []byte, oc *outcome) {
	want, err := os.ReadFile(goldenPath(name))
	if err != nil {
		oc.fail("read golden: %v", err)
		return
	}
	if string(want) != string(got) {
		oc.fail("report differs from %s", goldenPath(name))
	}
}

// runOps is the run of an operation workload: timed set-up, an untraced
// window, and in trace mode a traced window plus the layer probes.
func runOps(d workloadDef, o options) (*outcome, error) {
	oc := &outcome{}
	window := time.Duration(o.seconds * float64(time.Second))
	if o.trace {
		window /= 2
	}
	inst, setup, err := timeSetup(o.smoke, func() (instance, error) {
		return d.setup(o.seed, o.smoke, nil)
	}, nil)
	oc.setup = setup
	if err != nil {
		return nil, fmt.Errorf("setup: %w", err)
	}
	// Every run checks the shipped spec against its golden once, outside
	// the timed window; that operation's work is the nominal size
	// op_p50_ms is scaled to.
	nominal := 0.0
	if d.golden != "" {
		ref, err := d.setup(defaultSeed, o.smoke, nil)
		if err != nil {
			return nil, fmt.Errorf("golden setup: %w", err)
		}
		oc.attempted++
		out, err := ref.op(0)
		if err != nil {
			oc.fail("golden operation: %v", err)
		} else {
			checkGolden(d.golden, out.report, oc)
			nominal = out.work
		}
	}
	plain := runWindow(inst, window, nominal, nil, oc)
	oc.opSecs, oc.peakMB = plain.lat, plain.peakMB
	oc.workRate = median(plain.work)
	oc.digest = checkDigests(plain.outs, "", oc)
	if len(plain.outs) > 0 {
		oc.lines = append(oc.lines, opLines(d, plain)...)
	}
	if !o.trace {
		return oc, nil
	}

	tr := obs.New(1 << 16)
	tinst, err := d.setup(o.seed, o.smoke, tr)
	if err != nil {
		return nil, fmt.Errorf("traced setup: %w", err)
	}
	traced := runWindow(tinst, window, nominal, tr, oc)
	checkDigests(traced.outs, oc.digest, oc)
	oc.layer = opLayers(plain, traced, tr)
	if err := runProbes(d, o, tr, oc, nil); err != nil {
		return nil, err
	}
	return oc, writeTrace(tr, d.name, o, oc)
}

// opLines name an operation workload's rate in its own unit (what
// work_per_s measures there), for the human summary.
func opLines(d workloadDef, win opWindow) []string {
	name := "placements_per_s"
	unit := "placements/s"
	if d.name == "mix" {
		name, unit = "sim_minstr_per_s", "Minstr/s"
	}
	return []string{fmt.Sprintf("%s = %.6g %s (median over %d operations, IQR/median %.3f)",
		name, median(win.work), unit, len(win.work), spread(win.work))}
}

// opLayers derives the operation-level per-layer metrics from the
// traced window's engine deltas and spans.
func opLayers(plain, traced opWindow, tr *obs.Tracer) map[string]float64 {
	l := map[string]float64{}
	n := float64(len(traced.outs))
	if n == 0 {
		return l
	}
	var busy, wall float64
	var par int
	var placements float64
	var predicted, resim int
	phase := map[string]float64{}
	for i, out := range traced.outs {
		l["sched.sims"] += float64(out.delta.Simulations) / n
		l["sched.memo_hits"] += float64(out.delta.MemoHits) / n
		l["sched.disk_hits"] += float64(out.delta.DiskHits) / n
		busy += out.delta.BusySeconds
		wall += traced.secs[i]
		par = out.delta.Parallelism
		for _, p := range out.delta.Phases {
			phase[p.Name] += p.Seconds / n
		}
		if out.fleet != nil {
			placements += float64((out.fleet.Requests + out.fleet.Backlog) * len(out.fleet.Results))
			predicted += out.fleet.PairsPredicted
			resim += out.fleet.PairsResimulated
		}
	}
	l["machine.busy_s"] = busy / n
	l["sched.queue_wait_s"] = phase[sched.PhaseQueueWait]
	l["sched.memo_wait_s"] = phase[sched.PhaseMemoWait]
	l["sched.disk_load_s"] = phase[sched.PhaseDiskLoad]
	l["sched.disk_save_s"] = phase[sched.PhaseDiskSave]
	if wall > 0 && par > 0 {
		l["sched.pool_eff"] = busy / (wall * float64(par))
	}
	spans := spanTotals(tr, traced.spans)
	sec := func(name string) float64 { return spans[name].Seconds() / n }
	l["fleet.compile_s"] = sec("compile")
	l["fleet.oracle_s"] = sec("oracle")
	l["fleet.episode_s"] = sec("episode")
	if placements > 0 {
		l["fleet.episode_ns_per_placement"] = float64(spans["episode"].Nanoseconds()) / placements
	}
	l["model.probe_s"] = sec("probe-batch")
	l["model.predict_s"] = sec("predict")
	if predicted > 0 {
		l["model.resim_frac"] = float64(resim) / float64(predicted)
	}
	if m := median(plain.secs); m > 0 {
		l["obs.overhead_frac"] = median(traced.secs)/m - 1
	}
	return l
}

// writeTrace writes the run's spans as Chrome trace JSON under the
// output directory.
func writeTrace(tr *obs.Tracer, name string, o options, oc *outcome) error {
	path := filepath.Join(o.out, fmt.Sprintf("trace-%s-%s.json", name, seedLabel(o.seed)))
	if err := os.WriteFile(path, tr.ChromeTrace(), 0o644); err != nil {
		return fmt.Errorf("write trace: %w", err)
	}
	oc.lines = append(oc.lines, fmt.Sprintf("chrome trace: %s (%d spans, %d dropped)", path, tr.Len(), tr.Dropped()))
	return nil
}

// runWorkload runs one workload, prints its summary, and builds the
// result line.
func runWorkload(d workloadDef, o options, w io.Writer) (*result, error) {
	run := runOps
	if d.run != nil {
		run = d.run
	}
	oc, err := run(d, o)
	if err != nil {
		return nil, err
	}
	printSummary(d, o, oc, w)
	res := &result{
		Correct:   len(oc.problems) == 0,
		Attempted: oc.attempted,
		Failed:    oc.failed,
		Metrics:   map[string]metric{},
	}
	if o.trace {
		for _, m := range perLayer {
			res.Metrics[m.name] = metric{Value: oc.layer[m.name], Unit: m.unit}
		}
	} else {
		for _, m := range endToEnd {
			res.Metrics[m.name] = metric{Value: oc.endToEnd(m.name), Unit: m.unit}
		}
	}
	return res, nil
}

func (oc *outcome) endToEnd(name string) float64 {
	switch name {
	case "setup_s":
		return median(oc.setup)
	case "op_p50_ms":
		return median(oc.opSecs) * 1000
	case "work_per_s":
		return oc.workRate
	case "peak_mem_mb":
		return oc.peakMB
	}
	panic("unknown end-to-end metric " + name)
}

func printSummary(d workloadDef, o options, oc *outcome, w io.Writer) {
	mode := "untraced"
	if o.trace {
		mode = "traced"
	}
	fmt.Fprintf(w, "== %s (seed %d, %s, %.3gs window) ==\n", d.name, o.seed, mode, o.seconds)
	fmt.Fprintf(w, "setup_s = %.6g s (median of %d set-ups)\n", median(oc.setup), len(oc.setup))
	fmt.Fprintf(w, "op_p50_ms = %.6g ms (n=%d, IQR/median %.3f)", median(oc.opSecs)*1000, len(oc.opSecs), spread(oc.opSecs))
	if t, label := tail(oc.opSecs); label != "p50" {
		fmt.Fprintf(w, ", %s %.6g ms", label, t*1000)
	}
	fmt.Fprintln(w)
	fmt.Fprintf(w, "work_per_s = %.6g (%s per host second)\n", oc.workRate, d.work)
	for _, l := range oc.lines {
		fmt.Fprintln(w, l)
	}
	fmt.Fprintf(w, "peak_mem_mb = %.6g MB\n", oc.peakMB)
	frac := 0.0
	if oc.attempted > 0 {
		frac = float64(oc.failed) / float64(oc.attempted)
	}
	fmt.Fprintf(w, "fail_frac = %.6g (%d of %d)\n", frac, oc.failed, oc.attempted)
	fmt.Fprintf(w, "digest %s seed %d: %s\n", d.name, o.seed, oc.digest)
	for _, p := range oc.problems {
		fmt.Fprintln(w, "CHECK FAILED:", p)
	}
	if o.trace {
		for _, m := range perLayer {
			fmt.Fprintf(w, "  %-32s %14.6g %s\n", m.name, oc.layer[m.name], m.unit)
		}
	}
}
