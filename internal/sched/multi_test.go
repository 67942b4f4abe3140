package sched

import (
	"testing"

	"repro/internal/workload"
)

func TestRunMultiTwoCopies(t *testing.T) {
	r := New(Options{Scale: 5e-4})
	fg := workload.MustByName("fop")
	bg := workload.MustByName("ferret")
	res := r.Run(Multi(testCfg, fg, []*workload.Profile{bg, bg}, 0, 0))
	if len(res.Jobs) != 3 {
		t.Fatalf("%d jobs, want 3", len(res.Jobs))
	}
	bgCount := 0
	for _, j := range res.Jobs {
		if j.Background {
			bgCount++
			if j.Iterations <= 0 {
				t.Fatal("background copy made no progress")
			}
		}
	}
	if bgCount != 2 {
		t.Fatalf("%d background jobs", bgCount)
	}
}

func TestRunMultiMoreCopiesMoreContention(t *testing.T) {
	r := New(Options{Scale: 2e-3})
	fg := workload.MustByName("429.mcf")
	bg := workload.MustByName("canneal")
	one := r.Run(Multi(testCfg, fg, []*workload.Profile{bg}, 0, 0)).
		JobByName(fg.Name).Seconds
	two := r.Run(Multi(testCfg, fg, []*workload.Profile{bg, bg}, 0, 0)).
		JobByName(fg.Name).Seconds
	if two < one*0.98 {
		t.Fatalf("second background copy reduced interference: 1=%v 2=%v", one, two)
	}
}

func TestRunMultiPartition(t *testing.T) {
	r := New(Options{Scale: 5e-4})
	fg := workload.MustByName("fop")
	bg := workload.MustByName("ferret")
	res := r.Run(Multi(testCfg, fg, []*workload.Profile{bg, bg}, 8, 4))
	if res.JobByName(fg.Name).Seconds <= 0 {
		t.Fatal("degenerate run")
	}
}

func TestRunMultiValidation(t *testing.T) {
	r := New(Options{Scale: 5e-4})
	fg := workload.MustByName("fop")
	bg := workload.MustByName("ferret")
	for _, bgs := range [][]*workload.Profile{
		{},           // none
		{bg, bg, bg}, // too many for 4 cores
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%d background jobs accepted", len(bgs))
				}
			}()
			r.Run(Multi(testCfg, fg, bgs, 0, 0))
		}()
	}
}

func TestRunMultiMemoized(t *testing.T) {
	r := New(Options{Scale: 5e-4})
	fg := workload.MustByName("fop")
	bg := workload.MustByName("ferret")
	a := r.Run(Multi(testCfg, fg, []*workload.Profile{bg}, 0, 0))
	b := r.Run(Multi(testCfg, fg, []*workload.Profile{bg}, 0, 0))
	if a != b {
		t.Fatal("multi runs not memoized")
	}
}
