package sched

import (
	"fmt"

	"repro/internal/machine"
	"repro/internal/workload"
)

// The canonical §5 shapes, laid out on a platform configuration: an
// application alone, a foreground/background pair on disjoint core
// halves, and a foreground with several background peers. cfg only
// lays the mix out (slots, LLC geometry); the mix leaves Machine nil
// and so runs on the runner's platform template. A caller pricing
// another platform lays the mix out on it and sets Machine itself.
// Invalid shapes panic: they are construction bugs, not user input.

// Alone is app running alone: its threads (capped by CapThreads) fill
// both hyperthreads of each core from slot 0 before the next core (the
// paper's assignment order), replacing in the first ways LLC ways
// (0 = the full cache).
func Alone(cfg machine.Config, app *workload.Profile, threads, ways int) MixSpec {
	threads = CapThreads(app, threads)
	slots := make([]int, threads)
	for i := range slots {
		slots[i] = i // slot order = HT0/HT1 of core 0, then core 1, ...
	}
	if ways < 0 || ways > cfg.Hier.LLC.Assoc {
		panic(fmt.Sprintf("sched: invalid single allocation of %d ways", ways))
	}
	return MixSpec{Jobs: []MixJob{{
		App: app, Threads: threads, Slots: slots, Seed: "single", WayLim: ways,
	}}}
}

// HalfAlone is the foreground baseline of §5.1: app alone on half the
// cores (2 cores / 4 hyperthreads on the paper's platform) with the
// full LLC.
func HalfAlone(cfg machine.Config, app *workload.Profile) MixSpec {
	return Alone(cfg, app, cfg.Cores/2*cfg.ThreadsPerCore, 0)
}

// WholeAlone is the sequential baseline of §5.3: app alone on every
// hardware thread with the full LLC.
func WholeAlone(cfg machine.Config, app *workload.Profile) MixSpec {
	return Alone(cfg, app, cfg.Cores*cfg.ThreadsPerCore, 0)
}

// Pair is the §5 co-run: fg on the front half of the cores, bg on the
// back half, each capped at its half's hyperthreads. fgWays/bgWays
// split the LLC, the foreground in the low ways and the background in
// the high ways; both zero leaves it fully shared. loop restarts the
// background continuously, so the run ends when the foreground
// completes (Figs 8, 9, 12, 13); otherwise both run exactly once and
// the run ends when both have completed (Figs 10, 11).
func Pair(cfg machine.Config, fg, bg *workload.Profile, fgWays, bgWays int, loop bool) MixSpec {
	fgR, bgR := wayRanges("pair", cfg.Hier.LLC.Assoc, fgWays, bgWays)
	half := cfg.Cores / 2
	front, back := make([]int, half), make([]int, half)
	for i := range front {
		front[i], back[i] = i, half+i
	}
	ht := half * cfg.ThreadsPerCore
	return MixSpec{Jobs: []MixJob{
		{App: fg, Threads: CapThreads(fg, ht), Slots: cfg.SlotsForCores(front...),
			Seed: "fg", WayFirst: fgR[0], WayLim: fgR[1]},
		{App: bg, Threads: CapThreads(bg, ht), Slots: cfg.SlotsForCores(back...),
			Background: loop, Seed: "bg", WayFirst: bgR[0], WayLim: bgR[1]},
	}}
}

// Multi is the foreground co-scheduled with several continuously
// running background peers — the "two or more copies of the background
// applications" of §5.2 and the multi-peer scenario of §6.3. The
// foreground keeps cores 0-1; each peer gets one core from core 2 up
// (at most Cores-2 peers). fgWays/bgWays split the LLC as in Pair, every
// peer sharing the background's high ways (peers contend within the
// background partition, §6.3).
func Multi(cfg machine.Config, fg *workload.Profile, bgs []*workload.Profile, fgWays, bgWays int) MixSpec {
	if maxBgs := cfg.Cores - 2; len(bgs) == 0 || len(bgs) > maxBgs {
		panic(fmt.Sprintf("sched: %d background jobs, platform fits 1..%d", len(bgs), maxBgs))
	}
	fgR, bgR := wayRanges("multi", cfg.Hier.LLC.Assoc, fgWays, bgWays)
	jobs := []MixJob{{App: fg, Threads: CapThreads(fg, 2*cfg.ThreadsPerCore),
		Slots: cfg.SlotsForCores(0, 1), Seed: "fg", WayFirst: fgR[0], WayLim: fgR[1]}}
	for i, bg := range bgs {
		jobs = append(jobs, MixJob{
			App: bg, Threads: CapThreads(bg, cfg.ThreadsPerCore),
			Slots: cfg.SlotsForCores(2 + i), Background: true,
			Seed: fmt.Sprintf("bg%d", i), WayFirst: bgR[0], WayLim: bgR[1],
		})
	}
	return MixSpec{Jobs: jobs}
}

// wayRanges converts a low/high way split to [first, lim) ranges: the
// foreground gets the fgWays lowest ways, the background the bgWays
// highest. Both zero is the fully shared cache.
func wayRanges(shape string, assoc, fgWays, bgWays int) (fgR, bgR [2]int) {
	switch {
	case fgWays == 0 && bgWays == 0:
	case fgWays > 0 && bgWays > 0 && fgWays+bgWays <= assoc:
		fgR = [2]int{0, fgWays}
		bgR = [2]int{assoc - bgWays, assoc}
	default:
		panic(fmt.Sprintf("sched: invalid %s partition %d+%d ways of %d", shape, fgWays, bgWays, assoc))
	}
	return fgR, bgR
}
