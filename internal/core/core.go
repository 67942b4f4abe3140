// Package core is the library's high-level API over the simulated
// way-partitionable platform, the workload catalog, and the paper's
// partitioning policies.
//
// Session is the run entrypoint for specs: scenario and fleet files
// run through it and come back as versioned report envelopes (the
// `cachepart scenario run`, `fleet run`, and `serve` front ends).
// System asks the paper's central question about one pair directly —
// can a latency-sensitive foreground share a machine with background
// work without losing responsiveness?
//
//	sys := core.NewSystem(core.Options{})
//	alone, _ := sys.RunAlone("429.mcf", 4, core.AllWays)
//	pair, err := sys.Consolidate("429.mcf", "ferret", core.PolicyBiased)
//	if err != nil {
//		return err // unknown policy, or one a pair cannot express
//	}
//	fmt.Println(alone.Seconds, pair.FgSlowdown, pair.FgWays, pair.BgThroughput)
//
// Consolidate prices the pair through the policy's pair plan
// (partition.PlanPair), the same pricer the fleet oracle uses.
// Everything deeper (cache geometry, prefetchers, energy coefficients,
// experiment drivers for each paper figure) lives in the sibling
// internal packages.
package core

import (
	"fmt"

	"repro/internal/partition"
	"repro/internal/sched"
	"repro/internal/workload"
)

// AllWays requests the full 12-way LLC.
const AllWays = 0

// Policy selects how the LLC is managed for a consolidated pair: any
// name in the partition-policy registry.
type Policy string

// The shipped policies.
const (
	PolicyShared  Policy = "shared"
	PolicyFair    Policy = "fair"
	PolicyBiased  Policy = "biased"
	PolicyDynamic Policy = "dynamic"
	PolicyUtility Policy = "utility"
)

// Policies lists the §5-§6 policies plus the utility scheme in
// presentation order.
func Policies() []Policy {
	return []Policy{PolicyShared, PolicyFair, PolicyBiased, PolicyDynamic, PolicyUtility}
}

// Options configure a System.
type Options struct {
	// Scale multiplies the catalog's nominal instruction counts
	// (0 = sched.DefaultScale). Larger values cost proportionally more
	// simulation time and give cleaner steady-state numbers.
	Scale float64
	// Parallelism is the worker count independent simulations (policy
	// searches, sweeps) fan across (0 = GOMAXPROCS, 1 = serial).
	// Results are identical at any setting; only host time changes.
	Parallelism int
	// CacheDir, when non-empty, persists simulation results to disk so
	// repeated invocations — including other processes — skip
	// simulations they have already run (see sched.Options.CacheDir).
	CacheDir string
}

// System is a simulated platform plus a memoized run cache. It is safe
// for concurrent use; independent simulations fan across the engine's
// worker pool.
type System struct {
	r *sched.Runner
}

// NewSystem builds a system with the paper's platform: 4-core/8-thread
// Sandy Bridge client, 6 MB 12-way inclusive LLC with way partitioning,
// four hardware prefetchers, ring interconnect, dual-channel DDR3.
func NewSystem(opt Options) *System {
	return &System{r: sched.New(sched.Options{
		Scale:       opt.Scale,
		Parallelism: opt.Parallelism,
		CacheDir:    opt.CacheDir,
	})}
}

// Runner exposes the underlying scheduler for advanced scenarios
// (experiment drivers, custom placements).
func (s *System) Runner() *sched.Runner { return s.r }

// Workloads lists the 45 applications of the catalog in suite order.
func Workloads() []string { return workload.Names() }

// Representatives lists the six Table 3 cluster representatives.
func Representatives() []string { return workload.RepresentativeNames() }

// RunReport summarizes a standalone run.
type RunReport struct {
	App          string
	Threads      int
	Ways         int
	Seconds      float64
	IPC          float64
	LLCMPKI      float64
	LLCAPKI      float64
	SocketJoules float64
	WallJoules   float64
}

// RunAlone executes one application alone on the machine with the given
// software thread count and LLC way allocation (AllWays = no
// restriction). Threads beyond the application's parallelism are capped.
func (s *System) RunAlone(app string, threads, ways int) (RunReport, error) {
	p, err := workload.ByName(app)
	if err != nil {
		return RunReport{}, err
	}
	if ways < 0 || ways > 12 {
		return RunReport{}, fmt.Errorf("core: ways %d out of [0,12]", ways)
	}
	res := s.r.Run(sched.Alone(s.r.MachineConfig(), p, threads, ways))
	j := res.JobByName(p.Name)
	return RunReport{
		App: p.Name, Threads: j.Threads, Ways: ways,
		Seconds: j.Seconds, IPC: j.IPC,
		LLCMPKI: j.LLCMPKI, LLCAPKI: j.LLCAPKI,
		SocketJoules: res.Energy.SocketJoules,
		WallJoules:   res.Energy.WallJoules,
	}, nil
}

// ConsolidationReport summarizes a foreground/background co-schedule.
type ConsolidationReport struct {
	Fg, Bg string
	Policy Policy

	// FgWays/BgWays are the static split used (0/0 for shared; for the
	// dynamic policy they are the controller's final allocation).
	FgWays, BgWays int

	// FgSeconds is the foreground completion time; FgSlowdown is
	// relative to the foreground alone on two cores with the full LLC.
	FgSeconds  float64
	FgSlowdown float64

	// BgThroughput counts background iterations completed during the
	// foreground run.
	BgThroughput float64

	SocketJoules float64
	WallJoules   float64

	// Reallocations counts dynamic mask changes (dynamic policy only).
	Reallocations int
}

// Consolidate co-schedules fg (cores 0-1, 4 hyperthreads) with a
// continuously-running bg (cores 2-3) under the named partition
// policy, priced through the policy's pair plan: search policies
// (biased) run the paper's exhaustive sweep, online policies (dynamic,
// utility) attach their decision loop, offline policies apply their
// static split. A policy the pair shape cannot express is an error.
func (s *System) Consolidate(fg, bg string, policy Policy) (ConsolidationReport, error) {
	fp, err := workload.ByName(fg)
	if err != nil {
		return ConsolidationReport{}, err
	}
	bp, err := workload.ByName(bg)
	if err != nil {
		return ConsolidationReport{}, err
	}
	pol, err := partition.New(string(policy), nil)
	if err != nil {
		return ConsolidationReport{}, err
	}
	cfg := s.r.MachineConfig()
	plan, err := partition.PlanPair(pol, cfg.Hier.LLC.Assoc)
	if err != nil {
		return ConsolidationReport{}, fmt.Errorf("core: policy %s: %w", policy, err)
	}
	alone := s.r.Run(sched.HalfAlone(cfg, fp)).JobByName(fp.Name).Seconds
	var specs []sched.Spec
	for _, mix := range plan.Specs(cfg, s.r.Scale(), fp, bp) {
		specs = append(specs, mix)
	}
	out := plan.Harvest(s.r.RunBatch(specs), alone)

	res := out.Result
	fgJ := res.JobByName(fp.Name)
	return ConsolidationReport{
		Fg: fp.Name, Bg: bp.Name, Policy: policy,
		FgWays: out.FgWays, BgWays: out.BgWays,
		FgSeconds:     fgJ.Seconds,
		FgSlowdown:    fgJ.Seconds / alone,
		BgThroughput:  res.JobByName(bp.Name).Iterations,
		SocketJoules:  res.Energy.SocketJoules,
		WallJoules:    res.Energy.WallJoules,
		Reallocations: out.Reallocations,
	}, nil
}
