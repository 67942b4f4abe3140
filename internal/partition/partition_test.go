package partition

import (
	"testing"

	"repro/internal/sched"
	"repro/internal/workload"
)

func TestPolicyNames(t *testing.T) {
	for _, want := range []string{"shared", "fair", "biased", "dynamic", "explicit", "utility"} {
		p, err := New(want, nil)
		if err != nil {
			t.Fatalf("New(%q): %v", want, err)
		}
		if p.Name() != want {
			t.Errorf("New(%q).Name() = %q", want, p.Name())
		}
	}
}

func TestPairWays(t *testing.T) {
	if f, b := PairWays(MustNew("shared", nil), 12); f != 0 || b != 0 {
		t.Fatalf("shared ways = %d,%d", f, b)
	}
	if f, b := PairWays(MustNew("fair", nil), 12); f != 6 || b != 6 {
		t.Fatalf("fair ways = %d,%d", f, b)
	}
}

func TestStaticPoliciesOrder(t *testing.T) {
	ps := StaticPolicies()
	if len(ps) != 3 || ps[0].Name() != "shared" || ps[1].Name() != "fair" || ps[2].Name() != "biased" {
		t.Fatalf("StaticPolicies() = %v", ps)
	}
}

func TestBestBiasedSearch(t *testing.T) {
	r := sched.New(sched.Options{Scale: 1e-3})
	fg := workload.MustByName("429.mcf")
	bg := workload.MustByName("ferret")
	ch := BestBiased(r, fg, bg)
	if ch.FgWays < 1 || ch.FgWays > 11 || ch.FgWays+ch.BgWays != 12 {
		t.Fatalf("biased split %d+%d", ch.FgWays, ch.BgWays)
	}
	if ch.BgThroughput <= 0 {
		t.Fatal("biased choice recorded no background progress")
	}
	// mcf is cache-hungry: the chosen foreground share should not be
	// tiny when paired with a cache-indifferent background.
	if ch.FgWays < 3 {
		t.Fatalf("mcf granted only %d ways against ferret", ch.FgWays)
	}
	// The choice must beat or match fair partitioning for the fg.
	cfg := r.MachineConfig()
	fgAlone := r.Run(sched.HalfAlone(cfg, fg)).JobByName(fg.Name).Seconds
	fair := r.Run(sched.Pair(cfg, fg, bg, 6, 6, true)).JobByName(fg.Name).Seconds / fgAlone
	if ch.FgSlowdown > fair*1.02 {
		t.Fatalf("biased slowdown %v worse than fair %v", ch.FgSlowdown, fair)
	}
}
