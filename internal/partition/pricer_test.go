package partition

import (
	"strings"
	"testing"

	"repro/internal/machine"
)

func TestPlanPairDispatch(t *testing.T) {
	for _, c := range []struct {
		name   string
		online bool
		splits [][2]int
	}{
		{"shared", false, [][2]int{{0, 0}}},
		{"fair", false, [][2]int{{6, 6}}},
		{"dynamic", true, nil},
		{"utility", true, nil},
	} {
		plan, err := PlanPair(MustNew(c.name, nil), 12)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if plan.Online() != c.online || len(plan.Splits) != len(c.splits) {
			t.Fatalf("%s: online %v splits %v", c.name, plan.Online(), plan.Splits)
		}
		for i := range c.splits {
			if plan.Splits[i] != c.splits[i] {
				t.Errorf("%s: splits %v, want %v", c.name, plan.Splits, c.splits)
			}
		}
	}
	plan, err := PlanPair(MustNew("biased", nil), 12)
	if err != nil {
		t.Fatal(err)
	}
	if plan.Online() || len(plan.Splits) != 11 || plan.Splits[0] != [2]int{1, 11} || plan.Splits[10] != [2]int{11, 1} {
		t.Fatalf("biased sweep: %v", plan.Splits)
	}
}

func TestPlanPairRejectsInexpressiblePolicies(t *testing.T) {
	if _, err := PlanPair(MustNew("explicit", nil), 12); err == nil ||
		!strings.Contains(err.Error(), "explicit needs per-job way ranges") {
		t.Errorf("explicit: err %v", err)
	}
	if err := CheckPair(MustNew("explicit", nil), 0); err == nil {
		t.Error("explicit accepted before the platform is known")
	}
	// Assoc-dependent params only fail once the geometry is known.
	pol := MustNew("utility", []byte(`{"min_ways":7}`))
	if err := CheckPair(pol, 0); err != nil {
		t.Fatalf("shape-only check: %v", err)
	}
	if _, err := PlanPair(pol, 12); err == nil {
		t.Error("utility min_ways 7 accepted on a 12-way pair")
	}
}

// pairResult is a two-job co-run result with the given foreground time
// and background iterations.
func pairResult(fgSeconds, bgIters float64) *machine.Result {
	return &machine.Result{Jobs: []machine.JobResult{
		{Name: "fg", Seconds: fgSeconds},
		{Name: "bg", Background: true, Iterations: bgIters},
	}}
}

func TestPairPlanHarvest(t *testing.T) {
	// A sweep picks through the searcher's rule: the background rule
	// takes the highest throughput among the tied minimum slowdowns,
	// the protective rule the largest foreground share.
	var results []*machine.Result
	for w := 1; w < 12; w++ {
		sec := 2.0
		if w >= 6 {
			sec = 1.1
		}
		results = append(results, pairResult(sec, float64(12-w)))
	}
	for _, c := range []struct {
		params string
		fgWays int
	}{{"", 6}, {`{"rule":"foreground"}`, 11}} {
		plan, err := PlanPair(MustNew("biased", []byte(c.params)), 12)
		if err != nil {
			t.Fatal(err)
		}
		out := plan.Harvest(results, 1.0)
		if out.FgWays != c.fgWays || out.BgWays != 12-c.fgWays || out.Result != results[c.fgWays-1] {
			t.Errorf("biased %s: picked %d+%d", c.params, out.FgWays, out.BgWays)
		}
	}

	fair, _ := PlanPair(MustNew("fair", nil), 12)
	if out := fair.Harvest(results[:1], 1.0); out.FgWays != 6 || out.BgWays != 6 || out.Result != results[0] {
		t.Errorf("fair harvest: %+v", out)
	}

	dyn, _ := PlanPair(MustNew("dynamic", nil), 12)
	res := pairResult(1.2, 3)
	res.Partition = &machine.PartitionTrace{Policy: "dynamic", Reallocations: 7, FinalWays: []int{9, 3}}
	if out := dyn.Harvest([]*machine.Result{res}, 1.0); out.FgWays != 9 || out.BgWays != 3 || out.Reallocations != 7 {
		t.Errorf("online harvest: %+v", out)
	}
}
