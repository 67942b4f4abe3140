package sched

import (
	"sync"
	"testing"

	"repro/internal/workload"
)

// TestStatsPollDuringRun pins the progress-polling contract the serve
// status endpoint relies on: Stats may be read from any goroutine while
// a batch is executing on the worker pool. Under -race (CI's test job)
// this fails loudly if any counter read is not an atomic load.
func TestStatsPollDuringRun(t *testing.T) {
	r := New(Options{Scale: 5e-4, Parallelism: 4})
	app := workload.MustByName("ferret")

	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		var last Stats
		for {
			st := r.Stats()
			// Counters only move forward; a mid-run snapshot must never
			// regress an earlier one.
			if st.Simulations < last.Simulations || st.MemoHits < last.MemoHits ||
				st.DiskHits < last.DiskHits || st.BusySeconds < last.BusySeconds {
				t.Errorf("stats regressed mid-run: %+v after %+v", st, last)
				return
			}
			last = st
			select {
			case <-stop:
				return
			default:
			}
		}
	}()

	specs := make([]Spec, 0, 8)
	for threads := 1; threads <= 4; threads++ {
		for _, ways := range []int{0, 6} {
			specs = append(specs, Alone(testCfg, app, threads, ways))
		}
	}
	// Submit the batch twice: the second pass lands entirely on the memo
	// cache, so the poller also observes hit-counter movement.
	r.RunBatch(specs)
	r.RunBatch(specs)
	close(stop)
	wg.Wait()

	st := r.Stats()
	if st.Simulations == 0 || st.MemoHits == 0 {
		t.Fatalf("batch ran nothing: %+v", st)
	}
	if d := st.Delta(Stats{Simulations: 1}); d.Simulations != st.Simulations-1 {
		t.Fatalf("Delta arithmetic broken: %+v", d)
	}
}
