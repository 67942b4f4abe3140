package partition

import (
	"reflect"
	"testing"

	"repro/internal/sched"
	"repro/internal/workload"
)

func TestSplitWays(t *testing.T) {
	cases := []struct {
		assoc, n int
		want     [][2]int
	}{
		{12, 2, [][2]int{{0, 6}, {6, 12}}},
		{12, 4, [][2]int{{0, 3}, {3, 6}, {6, 9}, {9, 12}}},
		{12, 5, [][2]int{{0, 3}, {3, 6}, {6, 8}, {8, 10}, {10, 12}}},
		{12, 12, nil}, // every job one way
	}
	for _, c := range cases {
		got := SplitWays(c.assoc, c.n)
		if c.want != nil && !reflect.DeepEqual(got, c.want) {
			t.Errorf("SplitWays(%d,%d) = %v, want %v", c.assoc, c.n, got, c.want)
		}
		// Shares must tile the cache exactly.
		first := 0
		for _, r := range got {
			if r[0] != first || r[1] <= r[0] {
				t.Fatalf("SplitWays(%d,%d) = %v: non-contiguous", c.assoc, c.n, got)
			}
			first = r[1]
		}
		if first != c.assoc {
			t.Fatalf("SplitWays(%d,%d) covers %d ways", c.assoc, c.n, first)
		}
	}
}

func TestPickBiasedCriterion(t *testing.T) {
	cands := []Candidate{
		{FgWays: 1, FgSlowdown: 1.20, BgThroughput: 9},
		{FgWays: 2, FgSlowdown: 1.001, BgThroughput: 5}, // within eps of min, best bg
		{FgWays: 3, FgSlowdown: 1.000, BgThroughput: 3}, // the strict minimum
		{FgWays: 4, FgSlowdown: 1.05, BgThroughput: 8},
	}
	if got := PickBiased(cands); got != 1 {
		t.Fatalf("PickBiased = %d, want tie broken by bg throughput (1)", got)
	}
	if got := PickForForeground(cands); got != 2 {
		t.Fatalf("PickForForeground = %d, want strict-min index 2", got)
	}
	// Equal slowdowns: the larger share wins for the foreground rule.
	flat := []Candidate{
		{FgWays: 1, FgSlowdown: 1.01, BgThroughput: 4},
		{FgWays: 2, FgSlowdown: 1.01, BgThroughput: 2},
	}
	if got := PickForForeground(flat); got != 1 {
		t.Fatalf("PickForForeground flat = %d, want larger share (1)", got)
	}
}

// TestBestBiasedJobList: the search over a foreground plus two peers
// must run the §6.3 multi shape and return a sane split.
func TestBestBiasedJobList(t *testing.T) {
	r := sched.New(sched.Options{Scale: 3e-4})
	fg := workload.MustByName("429.mcf")
	bg := workload.MustByName("ferret")

	ch := BestBiased(r, fg, bg, bg)
	if ch.FgWays < 1 || ch.FgWays > 11 || ch.FgWays+ch.BgWays != 12 {
		t.Fatalf("choice: %+v", ch)
	}
	if ch.BgThroughput <= 0 {
		t.Fatalf("no background progress: %+v", ch)
	}

	// The sweep batches 11 multi splits + 1 baseline; each distinct
	// config simulates exactly once.
	specs := SearchSpecs(r.MachineConfig(), fg, bg, bg)
	if len(specs) != 12 {
		t.Fatalf("%d search specs", len(specs))
	}
	if n := len(specs[1].(sched.MixSpec).Jobs); n != 3 {
		t.Fatalf("multi-peer search split has %d jobs, want 3", n)
	}
}
