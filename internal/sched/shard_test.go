package sched

import (
	"os"
	"path/filepath"
	"reflect"
	"sync"
	"testing"

	"repro/internal/workload"
)

// TestMemoShardSpread: the FNV stripe hash must spread a realistic
// sweep's keys across shards — striping that degenerates to one shard
// would silently restore the global-mutex convoy this layer removes.
func TestMemoShardSpread(t *testing.T) {
	r := New(Options{Scale: QuickScale, Parallelism: 4})
	r.RunBatch(sweepSpecs())
	sizes := r.MemoShardSizes()
	if len(sizes) != MemoShards {
		t.Fatalf("MemoShardSizes length %d, want %d", len(sizes), MemoShards)
	}
	total, nonEmpty, max := 0, 0, 0
	for _, n := range sizes {
		total += n
		if n > 0 {
			nonEmpty++
		}
		if n > max {
			max = n
		}
	}
	if want := len(memoKeys(r)); total != want {
		t.Fatalf("shard sizes sum to %d, memo holds %d keys", total, want)
	}
	// ~15 distinct keys over 32 shards: collisions are fine, a single
	// shard hoarding most of the sweep is not.
	if nonEmpty < 2 || max > total/2+1 {
		t.Errorf("degenerate shard spread: %v", sizes)
	}
}

// TestShardedSingleflight: concurrent requests for one key must still
// collapse to a single simulation — sharding moved the flight map, not
// the singleflight guarantee.
func TestShardedSingleflight(t *testing.T) {
	r := New(Options{Scale: QuickScale, Parallelism: 8})
	spec := Alone(testCfg, workload.MustByName("429.mcf"), 2, 4)
	var wg sync.WaitGroup
	results := make([]any, 16)
	for i := range results {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			results[i] = r.Run(spec)
		}(i)
	}
	wg.Wait()
	if st := r.Stats(); st.Simulations != 1 {
		t.Fatalf("%d simulations for one key across 16 goroutines, want 1", st.Simulations)
	}
	for i := 1; i < len(results); i++ {
		if !reflect.DeepEqual(results[i], results[0]) {
			t.Fatalf("goroutine %d saw a different result", i)
		}
	}
}

// TestDiskStoreIndexSkipsForeignWrites documents the present-key
// index's one semantic edge: a record another process writes after
// this store opened is invisible to the index, so the key re-simulates
// (identical result by purity) rather than reading the foreign record.
func TestDiskStoreIndexSkipsForeignWrites(t *testing.T) {
	dir := t.TempDir()
	// Open the reader first: its index snapshot sees an empty directory.
	reader := New(Options{Scale: QuickScale, CacheDir: dir})
	// A second process (second store) writes the record afterwards.
	writer := New(Options{Scale: QuickScale, CacheDir: dir})
	want := writer.Run(storeSpec())
	if files, _ := filepath.Glob(filepath.Join(dir, "*.json")); len(files) != 1 {
		t.Fatalf("writer left %d records, want 1", len(files))
	}
	got := reader.Run(storeSpec())
	if st := reader.Stats(); st.DiskHits != 0 || st.Simulations != 1 {
		t.Fatalf("reader: %d disk hits, %d sims; want 0, 1 (index predates the record)",
			st.DiskHits, st.Simulations)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatal("re-simulated result differs from the stored one")
	}
}

// TestDiskStoreIndexSeededAtOpen: records present when the store opens
// must be indexed (one ReadDir) and served without simulation — the
// cross-process warm-start path.
func TestDiskStoreIndexSeededAtOpen(t *testing.T) {
	dir := t.TempDir()
	New(Options{Scale: QuickScale, CacheDir: dir}).Run(storeSpec())
	// Foreign junk in the directory must not confuse the index seed.
	if err := os.WriteFile(filepath.Join(dir, "notes.txt"), []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.Mkdir(filepath.Join(dir, "subdir.json"), 0o755); err != nil {
		t.Fatal(err)
	}
	warm := New(Options{Scale: QuickScale, CacheDir: dir})
	warm.Run(storeSpec())
	if st := warm.Stats(); st.DiskHits != 1 || st.Simulations != 0 {
		t.Fatalf("warm open: %d disk hits, %d sims; want 1, 0", st.DiskHits, st.Simulations)
	}
}
