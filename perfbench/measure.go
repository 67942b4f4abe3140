package main

import (
	"crypto/sha256"
	"encoding/hex"
	"math"
	"runtime/metrics"
	"sort"
	"strconv"
	"time"

	"repro/internal/obs"
)

// metricDef names one reported metric and its unit.
type metricDef struct{ name, unit string }

// endToEnd are the metrics every untraced run reports, on every
// workload. An operation is the workload's unit of timed work (see
// workloadDef.op), and work is what that operation accomplishes:
// simulated mega-instructions on mix, placements on the fleets,
// requests finished within the latency limit on serve.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"op_p50_ms", "ms"},
	{"work_per_s", "work/s"},
	{"peak_mem_mb", "MB"},
}

// perLayer are the metrics every traced run reports. A layer a workload
// bypasses reports 0 for its operation-derived metrics; the layer
// probes run on every workload's own inputs.
var perLayer = []metricDef{
	{"trace.fill_ns_per_ref", "ns"},
	{"prefetch.observe_ns", "ns"},
	{"prefetch.issued_per_kref", "1/kref"},
	{"cache.access_ns", "ns"},
	{"cache.miss_path_ns", "ns"},
	{"cache.prefetch_fill_ns", "ns"},
	{"cache.umon_access_ns", "ns"},
	{"cache.l1d_miss_frac", "frac"},
	{"cache.llc_miss_frac", "frac"},
	{"memory.step_ns", "ns"},
	{"interconnect.step_ns", "ns"},
	{"machine.busy_s", "s"},
	{"machine.ns_per_kinstr", "ns"},
	{"partition.decide_ns", "ns"},
	{"partition.reallocs", "count"},
	{"partition.online_overhead_frac", "frac"},
	{"sched.sims", "count"},
	{"sched.memo_hits", "count"},
	{"sched.disk_hits", "count"},
	{"sched.queue_wait_s", "s"},
	{"sched.memo_wait_s", "s"},
	{"sched.pool_eff", "frac"},
	{"sched.disk_load_s", "s"},
	{"sched.disk_save_s", "s"},
	{"sched.memo_hit_us", "us"},
	{"sched.disk_hit_us", "us"},
	{"loadgen.arrivals_ms", "ms"},
	{"fleet.compile_s", "s"},
	{"fleet.oracle_s", "s"},
	{"fleet.episode_s", "s"},
	{"fleet.episode_ns_per_placement", "ns"},
	{"model.probe_s", "s"},
	{"model.predict_s", "s"},
	{"model.predict_pair_ns", "ns"},
	{"model.resim_frac", "frac"},
	{"scenario.parse_us", "us"},
	{"core.run_spec_ms", "ms"},
	{"server.queue_wait_ms", "ms"},
	{"server.overhead_ms", "ms"},
	{"server.polls_per_req", "count"},
	{"server.refused", "count"},
	{"obs.overhead_frac", "frac"},
	{"client.lag_p99_ms", "ms"},
}

// quantiles cuts sorted-or-not data into n intervals the way Python's
// statistics.quantiles does by default (the "exclusive" method), so the
// spreads printed here match the ones computed over a run series.
func quantiles(data []float64, n int) []float64 {
	d := append([]float64(nil), data...)
	sort.Float64s(d)
	ld := len(d)
	if ld == 0 {
		return make([]float64, n-1)
	}
	if ld == 1 {
		out := make([]float64, n-1)
		for i := range out {
			out[i] = d[0]
		}
		return out
	}
	m := ld + 1
	out := make([]float64, 0, n-1)
	for i := 1; i < n; i++ {
		j := i * m / n
		j = max(1, min(j, ld-1))
		delta := i*m - j*n
		out = append(out, (d[j-1]*float64(n-delta)+d[j]*float64(delta))/float64(n))
	}
	return out
}

func median(data []float64) float64 {
	if len(data) == 0 {
		return 0
	}
	d := append([]float64(nil), data...)
	sort.Float64s(d)
	h := len(d) / 2
	if len(d)%2 == 1 {
		return d[h]
	}
	return (d[h-1] + d[h]) / 2
}

// spread is the interquartile range as a share of the median.
func spread(data []float64) float64 {
	med := median(data)
	if len(data) < 2 || med == 0 {
		return 0
	}
	q := quantiles(data, 4)
	return (q[2] - q[0]) / math.Abs(med)
}

// tail returns the highest of p99, p95, p90 and p50 that has at least
// ten samples beyond it, with its label.
func tail(data []float64) (float64, string) {
	for _, p := range []int{99, 95, 90} {
		if float64(len(data))*float64(100-p)/100 >= 10 {
			return quantiles(data, 100)[p-1], "p" + strconv.Itoa(p)
		}
	}
	return median(data), "p50"
}

// digest is a short content hash of an operation's output bytes.
func digest(b []byte) string {
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:8])
}

// memSampler samples the Go runtime's memory in use every 5 ms: total
// mapped memory (/memory/classes/total:bytes) less the heap pages that
// are free or returned to the OS. The raw total grows in whole heap
// arenas and never shrinks, so it jumps by megabytes between otherwise
// equal runs; one late garbage collection likewise sets a one-off
// high-water mark. The sampler therefore reports the median, over the
// window's one-second slices, of each slice's peak.
type memSampler struct {
	stop  chan struct{}
	done  chan struct{}
	peaks []float64 // per-slice peaks in MiB, written by the sampler
}

var memMetrics = []string{
	"/memory/classes/total:bytes",
	"/memory/classes/heap/free:bytes",
	"/memory/classes/heap/released:bytes",
}

const memSlice = time.Second

func startMemSampler() *memSampler {
	m := &memSampler{stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(m.done)
		tick := time.NewTicker(5 * time.Millisecond)
		defer tick.Stop()
		sliceEnd := time.Now().Add(memSlice)
		peak := inUseMiB()
		for {
			select {
			case <-m.stop:
				m.peaks = append(m.peaks, max(peak, inUseMiB()))
				return
			case now := <-tick.C:
				if now.After(sliceEnd) {
					m.peaks = append(m.peaks, peak)
					sliceEnd, peak = now.Add(memSlice), 0
				}
				peak = max(peak, inUseMiB())
			}
		}
	}()
	return m
}

func inUseMiB() float64 {
	s := make([]metrics.Sample, len(memMetrics))
	for i, name := range memMetrics {
		s[i].Name = name
	}
	metrics.Read(s)
	for _, x := range s {
		if x.Value.Kind() != metrics.KindUint64 {
			return 0
		}
	}
	return float64(s[0].Value.Uint64()-s[1].Value.Uint64()-s[2].Value.Uint64()) / (1 << 20)
}

// Stop ends sampling and returns the median slice peak in MiB.
func (m *memSampler) Stop() float64 {
	close(m.stop)
	<-m.done
	return median(m.peaks)
}

// spanTotals sums, per span name, the durations of every span that
// descends from one of the roots (the roots themselves excluded).
func spanTotals(tr *obs.Tracer, roots []obs.SpanID) map[string]time.Duration {
	recs := tr.Snapshot()
	parent := make(map[obs.SpanID]obs.SpanID, len(recs))
	for _, r := range recs {
		parent[r.ID] = r.Parent
	}
	isRoot := make(map[obs.SpanID]bool, len(roots))
	for _, id := range roots {
		isRoot[id] = true
	}
	under := map[obs.SpanID]bool{}
	var below func(id obs.SpanID) bool
	below = func(id obs.SpanID) bool {
		p, ok := parent[id]
		if !ok || p == 0 {
			return false
		}
		if isRoot[p] {
			return true
		}
		if v, seen := under[p]; seen {
			return v
		}
		v := below(p)
		under[p] = v
		return v
	}
	out := map[string]time.Duration{}
	for _, r := range recs {
		if below(r.ID) {
			out[r.Name] += r.Dur
		}
	}
	return out
}
