package experiments

import (
	"fmt"

	"repro/internal/prefetch"
	"repro/internal/sched"
	"repro/internal/workload"
)

// ScalabilityClass is the Table 1 categorization.
type ScalabilityClass string

// Table 1 classes.
const (
	ScalLow       ScalabilityClass = "low"
	ScalSaturated ScalabilityClass = "saturated"
	ScalHigh      ScalabilityClass = "high"
)

// classifyScalability applies thresholds to a speedup curve: low if the
// best speedup stays under 1.7, high if the app is still gaining at 8
// threads with a healthy overall speedup, saturated otherwise.
func classifyScalability(speedups map[int]float64) ScalabilityClass {
	best := 1.0
	for _, s := range speedups {
		if s > best {
			best = s
		}
	}
	switch {
	case best < 1.7:
		return ScalLow
	case speedups[8] >= 3.3 && speedups[8] >= 1.08*speedups[6]:
		return ScalHigh
	case speedups[8] >= 3.3:
		return ScalSaturated
	default:
		return ScalSaturated
	}
}

// speedupSpecs lists the runs one application's Figure 1 series needs:
// the 1-thread baseline plus every thread point.
func (c *Context) speedupSpecs(app *workload.Profile) []sched.Spec {
	cfg := c.R.MachineConfig()
	specs := []sched.Spec{sched.Alone(cfg, app, 1, 0)}
	for _, th := range c.ThreadPoints {
		specs = append(specs, sched.Alone(cfg, app, th, 0))
	}
	return specs
}

// SpeedupCurve measures app's speedup at each thread point, normalized
// to 1 thread (Figure 1's series for one application). The points run
// as one batch across the engine's workers.
func (c *Context) SpeedupCurve(app *workload.Profile) map[int]float64 {
	res := c.R.RunBatch(c.speedupSpecs(app))
	t1 := res[0].JobByName(app.Name).Seconds
	out := make(map[int]float64, len(c.ThreadPoints))
	for i, th := range c.ThreadPoints {
		out[th] = t1 / res[i+1].JobByName(app.Name).Seconds
	}
	return out
}

// submitSpeedupCurves batches every application's Figure 1 series so
// Figure 1 and Table 1 assemble from memo hits.
func (c *Context) submitSpeedupCurves() {
	var specs []sched.Spec
	for _, app := range c.Apps {
		specs = append(specs, c.speedupSpecs(app)...)
	}
	c.submit(specs)
}

// Fig1ThreadScalability reproduces Figure 1: normalized speedup of every
// application from 1 to 8 threads. All series are submitted as one
// batch up front.
func (c *Context) Fig1ThreadScalability() *Table {
	c.submitSpeedupCurves()
	t := &Table{Title: "Figure 1: speedup vs threads (normalized to 1 thread)"}
	t.Columns = append([]string{"app", "suite"}, colsForThreads(c.ThreadPoints)...)
	for _, app := range c.Apps {
		cur := c.SpeedupCurve(app)
		row := []string{app.Name, app.Suite}
		for _, th := range c.ThreadPoints {
			row = append(row, f(cur[th]))
		}
		t.Add(row...)
	}
	t.Note("paper: PARSEC mostly >4x at 8 threads; DaCapo largely 1-2.3x; SPEC and microbenchmarks flat")
	return t
}

func colsForThreads(ths []int) []string {
	var out []string
	for _, th := range ths {
		out = append(out, fmt.Sprintf("t%d", th))
	}
	return out
}

// Table1Scalability reproduces Table 1: the scalability classification.
func (c *Context) Table1Scalability() (*Table, map[string]ScalabilityClass) {
	c.submitSpeedupCurves()
	t := &Table{Title: "Table 1: thread scalability classes",
		Columns: []string{"app", "suite", "speedup@8", "class"}}
	classes := map[string]ScalabilityClass{}
	for _, app := range c.Apps {
		cur := c.SpeedupCurve(app)
		cl := classifyScalability(cur)
		classes[app.Name] = cl
		t.Add(app.Name, app.Suite, f(cur[8]), string(cl))
	}
	return t, classes
}

// UtilityClass is the Table 2 categorization.
type UtilityClass string

// Table 2 classes.
const (
	UtilLow       UtilityClass = "low"
	UtilSaturated UtilityClass = "saturated"
	UtilHigh      UtilityClass = "high"
)

// capacitySpecs lists one application's way sweep at a thread count.
func (c *Context) capacitySpecs(app *workload.Profile, threads int) []sched.Spec {
	cfg := c.R.MachineConfig()
	specs := make([]sched.Spec, len(c.WayPoints))
	for i, w := range c.WayPoints {
		specs[i] = sched.Alone(cfg, app, threads, w)
	}
	return specs
}

// CapacityCurve measures execution time at each way allocation for the
// given thread count (one series of Figure 2). The sweep runs as one
// batch across the engine's workers.
func (c *Context) CapacityCurve(app *workload.Profile, threads int) map[int]float64 {
	res := c.R.RunBatch(c.capacitySpecs(app, threads))
	out := make(map[int]float64, len(c.WayPoints))
	for i, w := range c.WayPoints {
		out[w] = res[i].JobByName(app.Name).Seconds
	}
	return out
}

// capacityDemandWays returns the smallest allocation (ignoring the
// pathological direct-mapped 1-way case, §3.2) whose execution time is
// within 5% of the full-cache time — the "capacity to reach 95% of max
// performance" used for the working-set census.
func capacityDemandWays(curve map[int]float64, wayPoints []int) int {
	full := curve[wayPoints[len(wayPoints)-1]]
	for _, w := range wayPoints {
		if w == 1 {
			continue
		}
		if curve[w] <= full*1.05 {
			return w
		}
	}
	return wayPoints[len(wayPoints)-1]
}

// classifyUtility applies Table 2's categories: low utility if the
// whole curve is nearly flat (capacity buys <10% end to end), high if
// the application is still gaining at the top of the range (capacity
// demand of 10+ ways), saturated in between.
func classifyUtility(curve map[int]float64, wayPoints []int) UtilityClass {
	full := curve[wayPoints[len(wayPoints)-1]]
	if w2, ok := curve[2]; ok && w2 < full*1.10 {
		return UtilLow
	}
	if capacityDemandWays(curve, wayPoints) >= 10 {
		return UtilHigh
	}
	return UtilSaturated
}

// Fig2LLCSensitivity reproduces Figure 2: execution time vs LLC
// allocation for the three §3.2 exemplars at 1/2/4/8 threads.
func (c *Context) Fig2LLCSensitivity() *Table {
	apps := []string{"swaptions", "tomcat", "471.omnetpp"}
	var specs []sched.Spec
	for _, name := range apps {
		app := workload.MustByName(name)
		for _, th := range []int{1, 2, 4, 8} {
			if th > app.MaxThreads {
				continue
			}
			specs = append(specs, c.capacitySpecs(app, th)...)
		}
	}
	c.submit(specs)

	t := &Table{Title: "Figure 2: execution time (s) vs LLC allocation"}
	t.Columns = []string{"app", "threads"}
	for _, w := range c.WayPoints {
		t.Columns = append(t.Columns, fmt.Sprintf("%.1fMB", float64(w)*0.5))
	}
	for _, name := range apps {
		app := workload.MustByName(name)
		for _, th := range []int{1, 2, 4, 8} {
			if th > app.MaxThreads {
				continue
			}
			row := []string{name, fmt.Sprintf("%d", th)}
			for _, w := range c.WayPoints {
				row = append(row, fmt.Sprintf("%.4f", c.singleSeconds(app, th, w)))
			}
			t.Add(row...)
		}
	}
	t.Note("paper: 0.5MB direct-mapped always detrimental; low/saturated/high utility exemplars; no sharp knees")
	return t
}

// Table2Result carries the Table 2 classification plus the working-set
// census the paper derives from it.
type Table2Result struct {
	Table   *Table
	Classes map[string]UtilityClass
	// DemandMB is each app's measured capacity demand in MB.
	DemandMB map[string]float64
	// Census fractions (§3.2): share of apps needing <=1MB and <=3MB.
	FracUnder1MB, FracUnder3MB float64
}

// Table2LLCUtility reproduces Table 2: LLC utility classes with the
// >10-accesses-per-kilo-instruction highlight, plus the capacity census.
func (c *Context) Table2LLCUtility() *Table2Result {
	cfg := c.R.MachineConfig()
	t := &Table{Title: "Table 2: LLC utility classes (* = >10 LLC accesses per kilo-instruction)",
		Columns: []string{"app", "suite", "demandMB", "LLC APKI", "class"}}
	res := &Table2Result{
		Table:    t,
		Classes:  map[string]UtilityClass{},
		DemandMB: map[string]float64{},
	}
	var specs []sched.Spec
	for _, app := range c.Apps {
		threads := sched.CapThreads(app, 4)
		specs = append(specs, c.capacitySpecs(app, threads)...)
		specs = append(specs, sched.Alone(cfg, app, threads, 0))
	}
	c.submit(specs)

	n1, n3 := 0, 0
	for _, app := range c.Apps {
		threads := sched.CapThreads(app, 4)
		curve := c.CapacityCurve(app, threads)
		cl := classifyUtility(curve, c.WayPoints)
		demand := float64(capacityDemandWays(curve, c.WayPoints)) * 0.5
		apki := c.R.Run(sched.Alone(cfg, app, threads, 0)).
			JobByName(app.Name).LLCAPKI
		res.Classes[app.Name] = cl
		res.DemandMB[app.Name] = demand
		if demand <= 1 {
			n1++
		}
		if demand <= 3 {
			n3++
		}
		name := app.Name
		if apki > 10 {
			name += " *"
		}
		t.Add(name, app.Suite, f(demand), f(apki), string(cl))
	}
	res.FracUnder1MB = float64(n1) / float64(len(c.Apps))
	res.FracUnder3MB = float64(n3) / float64(len(c.Apps))
	t.Note("capacity census: %.0f%% of apps need <=1MB, %.0f%% need <=3MB (paper: 44%% and 78%%)",
		res.FracUnder1MB*100, res.FracUnder3MB*100)
	return res
}

// prefetchSpecs lists one application's Figure 3 pair: all prefetchers
// on, all off.
func (c *Context) prefetchSpecs(app *workload.Profile) []sched.Spec {
	on := sched.Alone(c.R.MachineConfig(), app, 4, 0)
	off, pf := on, prefetch.AllOff()
	off.Prefetch = &pf
	return []sched.Spec{on, off}
}

// PrefetchSensitivity returns time(all prefetchers on)/time(all off)
// for one application at 4 threads (one bar of Figure 3).
func (c *Context) PrefetchSensitivity(app *workload.Profile) float64 {
	res := c.R.RunBatch(c.prefetchSpecs(app))
	return res[0].JobByName(app.Name).Seconds / res[1].JobByName(app.Name).Seconds
}

// Fig3Prefetchers reproduces Figure 3: normalized execution time with
// all prefetchers enabled relative to all disabled.
func (c *Context) Fig3Prefetchers() *Table {
	var specs []sched.Spec
	for _, app := range c.Apps {
		specs = append(specs, c.prefetchSpecs(app)...)
	}
	c.submit(specs)

	t := &Table{Title: "Figure 3: time with prefetchers on / off",
		Columns: []string{"app", "suite", "on/off"}}
	sensitive := 0
	for _, app := range c.Apps {
		r := c.PrefetchSensitivity(app)
		if r < 0.95 || r > 1.05 {
			sensitive++
		}
		t.Add(app.Name, app.Suite, f(r))
	}
	t.Note("%d of %d apps sensitive (>5%% change); paper: ~10 of 46, mostly SPEC FP streamers",
		sensitive, len(c.Apps))
	return t
}

// bandwidthSpecs lists one application's Figure 4 runs: the alone
// baseline and the run against the bandwidth hog. Nil for the hog
// itself (not part of the figure).
func (c *Context) bandwidthSpecs(app *workload.Profile) []sched.Spec {
	hog := workload.MustByName("stream_uncached")
	if app.Name == hog.Name {
		return nil
	}
	cfg := c.R.MachineConfig()
	return []sched.Spec{
		sched.HalfAlone(cfg, app),
		sched.Pair(cfg, app, hog, 0, 0, true),
	}
}

// BandwidthSensitivity returns the slowdown of app (4 threads, cores
// 0-1) when stream_uncached hogs the memory system from core 2 (one bar
// of Figure 4).
func (c *Context) BandwidthSensitivity(app *workload.Profile) float64 {
	specs := c.bandwidthSpecs(app)
	if specs == nil {
		return 1 // the hog against itself is not part of the figure
	}
	res := c.R.RunBatch(specs)
	return res[1].JobByName(app.Name).Seconds / res[0].JobByName(app.Name).Seconds
}

// Fig4Bandwidth reproduces Figure 4: execution-time increase when
// co-running with the bandwidth-hog microbenchmark.
func (c *Context) Fig4Bandwidth() *Table {
	var specs []sched.Spec
	for _, app := range c.Apps {
		specs = append(specs, c.bandwidthSpecs(app)...)
	}
	c.submit(specs)

	t := &Table{Title: "Figure 4: slowdown vs stream_uncached bandwidth hog",
		Columns: []string{"app", "suite", "slowdown"}}
	for _, app := range c.Apps {
		t.Add(app.Name, app.Suite, f(c.BandwidthSensitivity(app)))
	}
	t.Note("paper: SPEC FP streamers and the parallel applications suffer most (up to 3.8x); DaCapo barely affected")
	return t
}
