package sched_test

import (
	"fmt"
	"os"
	"strings"
	"testing"

	"repro/internal/machine"
	"repro/internal/model"
	"repro/internal/partition"
	"repro/internal/prefetch"
	"repro/internal/sched"
	"repro/internal/workload"
)

// TestMemoKeysGolden pins the memo key of every canonical mix shape:
// the alone, pair, and multi-peer constructors, the fleet's alone,
// probe, and per-policy pair plans on the default and an 8-core
// platform, and the experiment drivers' pair, multi-peer, and
// controller runs. Memo keys name persistent-store records, so a key
// that drifts silently turns every warm store cold. The golden was
// rendered by the spec builders these constructors replaced.
func TestMemoKeysGolden(t *testing.T) {
	r := sched.New(sched.Options{Scale: sched.QuickScale})
	cfg := r.MachineConfig()
	mcf := workload.MustByName("429.mcf")
	ferret := workload.MustByName("ferret")
	canneal := workload.MustByName("canneal")
	var sb strings.Builder
	add := func(label string, s sched.MixSpec) { fmt.Fprintf(&sb, "%s\t%s\n", label, s.Key(r)) }
	withPf := func(s sched.MixSpec, pf prefetch.Config) sched.MixSpec {
		s.Prefetch = &pf
		return s
	}
	withHook := func(s sched.MixSpec, key string) sched.MixSpec {
		s.Setup = func(*machine.Machine, []*machine.Job) {}
		s.PolicyKey = key
		return s
	}

	sb.WriteString("== sched ==\n")
	for _, app := range []*workload.Profile{mcf, ferret} {
		add("alone-half "+app.Name, sched.HalfAlone(cfg, app))
		add("alone-whole "+app.Name, sched.WholeAlone(cfg, app))
		for _, tw := range [][2]int{{1, 0}, {2, 3}, {4, 12}, {8, 1}} {
			add(fmt.Sprintf("alone %s t%d w%d", app.Name, tw[0], tw[1]), sched.Alone(cfg, app, tw[0], tw[1]))
		}
		add("alone-pf-off "+app.Name, withPf(sched.Alone(cfg, app, 4, 0), prefetch.AllOff()))
		add("alone-pf-dcu "+app.Name, withPf(sched.Alone(cfg, app, 4, 0), prefetch.Config{DCUIP: true, MLCStreamer: true}))
	}
	for _, p := range [][2]*workload.Profile{{mcf, ferret}, {ferret, canneal}} {
		fg, bg := p[0], p[1]
		name := fg.Name + "+" + bg.Name
		add("pair shared loop "+name, sched.Pair(cfg, fg, bg, 0, 0, true))
		add("pair shared once "+name, sched.Pair(cfg, fg, bg, 0, 0, false))
		for w := 1; w < 12; w++ {
			add(fmt.Sprintf("pair split %d/%d loop %s", w, 12-w, name), sched.Pair(cfg, fg, bg, w, 12-w, true))
		}
		add("pair split 6/6 once "+name, sched.Pair(cfg, fg, bg, 6, 6, false))
		add("pair split 3/5 loop "+name, sched.Pair(cfg, fg, bg, 3, 5, true))
		add("pair pf-off "+name, withPf(sched.Pair(cfg, fg, bg, 0, 0, true), prefetch.AllOff()))
		add("pair online "+name, withHook(sched.Pair(cfg, fg, bg, 0, 0, true), "dynamic{}@0.001/lat10"))
		add("pair hook-unkeyed "+name, withHook(sched.Pair(cfg, fg, bg, 0, 0, true), ""))
		add("multi 1 "+name, sched.Multi(cfg, fg, []*workload.Profile{bg}, 0, 0))
		add("multi 2 "+name, sched.Multi(cfg, fg, []*workload.Profile{bg, bg}, 0, 0))
		add("multi 2 mixed "+name, sched.Multi(cfg, fg, []*workload.Profile{bg, mcf}, 0, 0))
		for w := 1; w < 12; w++ {
			add(fmt.Sprintf("multi 2 split %d/%d %s", w, 12-w, name),
				sched.Multi(cfg, fg, []*workload.Profile{bg, mcf}, w, 12-w))
		}
		add("multi 2 split 4/6 "+name, sched.Multi(cfg, fg, []*workload.Profile{bg, bg}, 4, 6))
	}

	// The fleet's shapes: its platform is stamped into every mix when
	// it differs from the runner's template.
	sb.WriteString("== fleet ==\n")
	for _, cores := range []int{4, 8} {
		fcfg, pin := cfg, func(s sched.MixSpec) sched.MixSpec { return s }
		if cores != cfg.Cores {
			fcfg = machine.DefaultWithCores(cores)
			pin = func(s sched.MixSpec) sched.MixSpec {
				c := fcfg
				s.Machine = &c
				return s
			}
		}
		fadd := func(label string, s sched.MixSpec) { add(fmt.Sprintf("c%d %s", cores, label), pin(s)) }
		for _, app := range []*workload.Profile{mcf, ferret} {
			fadd("alone "+app.Name, sched.HalfAlone(fcfg, app))
			probe := sched.HalfAlone(fcfg, app)
			probe.Setup, probe.ProbeKey = model.ProbeSetup(), model.ProbeKey()
			fadd("probe "+app.Name, probe)
		}
		for _, p := range [][2]*workload.Profile{{mcf, ferret}, {ferret, mcf}} {
			fg, bg := p[0], p[1]
			for _, polName := range partition.Names() {
				if polName == "explicit" {
					continue
				}
				params := []string{""}
				if polName == "biased" {
					params = append(params, `{"rule":"foreground"}`)
				}
				for _, ps := range params {
					var raw []byte
					if ps != "" {
						raw = []byte(ps)
					}
					plan, err := partition.PlanPair(partition.MustNew(polName, raw), fcfg.Hier.LLC.Assoc)
					if err != nil {
						t.Fatal(err)
					}
					for i, s := range plan.Specs(fcfg, r.Scale(), fg, bg) {
						fadd(fmt.Sprintf("pair %s%s #%d %s+%s", polName, ps, i, fg.Name, bg.Name), s)
					}
				}
			}
		}
	}

	sb.WriteString("== experiments ==\n")
	for _, p := range [][2]*workload.Profile{{mcf, ferret}, {ferret, canneal}} {
		fg, bg := p[0], p[1]
		name := fg.Name + "+" + bg.Name
		for _, once := range []bool{false, true} {
			for _, split := range [][2]int{{0, 0}, {6, 6}, {3, 9}, {11, 1}} {
				add(fmt.Sprintf("pairRun %d/%d once=%v %s", split[0], split[1], once, name),
					sched.Pair(cfg, fg, bg, split[0], split[1], !once))
			}
		}
		add("multiRun 1 "+name, sched.Multi(cfg, fg, []*workload.Profile{bg}, 0, 0))
		add("multiRun 2 "+name, sched.Multi(cfg, fg, []*workload.Profile{bg, bg}, 0, 0))
		add("dynamicSpec "+name, partition.PairEpisode(cfg, r.Scale(), partition.MustNew("dynamic", nil), fg, bg, nil))
	}

	want, err := os.ReadFile("testdata/memo_keys.golden")
	if err != nil {
		t.Fatal(err)
	}
	if got := sb.String(); got != string(want) {
		gl, wl := strings.Split(got, "\n"), strings.Split(string(want), "\n")
		for i := 0; i < len(gl) && i < len(wl); i++ {
			if gl[i] != wl[i] {
				t.Fatalf("memo keys drifted at line %d:\n got %s\nwant %s", i+1, gl[i], wl[i])
			}
		}
		t.Fatalf("memo keys drifted: %d lines, golden has %d", len(gl), len(wl))
	}
}
