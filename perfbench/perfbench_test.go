package main

import (
	"bytes"
	"encoding/json"
	"os"
	"regexp"
	"slices"
	"strings"
	"testing"
	"time"
)

// The self-tests run from the repository root, where the benchmark
// itself runs: go test ./ in this directory, then t.Chdir("..").

func shipped(t *testing.T) map[string]shippedSpec {
	t.Helper()
	s, err := readShipped()
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// inputs renders every workload's generated inputs for one seed.
func inputs(t *testing.T, seed int64) []string {
	t.Helper()
	var out []string
	mix, err := mixInput(seed)
	if err != nil {
		t.Fatal(err)
	}
	b, _ := json.Marshal(mix)
	out = append(out, string(b))
	for _, f := range []string{"fleet-consolidation-50.json", "fleet-mega-10k.json"} {
		s, err := fleetInput(f, seed)
		if err != nil {
			t.Fatal(err)
		}
		b, _ := json.Marshal(s)
		out = append(out, string(b))
	}
	var sb strings.Builder
	for _, r := range serveInput(seed, serveRate, 2*time.Second, shipped(t)) {
		sb.WriteString(r.due.String() + " " + r.name + " " + string(r.body) + "\n")
	}
	return append(out, sb.String())
}

func TestSameSeedSameInputs(t *testing.T) {
	t.Chdir("..")
	if a, b := inputs(t, 7), inputs(t, 7); !slices.Equal(a, b) {
		t.Fatal("seed 7 generated different inputs on two calls")
	}
}

func TestSeedChangesInputs(t *testing.T) {
	t.Chdir("..")
	a, b := inputs(t, 1), inputs(t, 2)
	for i := range a {
		if a[i] == b[i] {
			t.Errorf("input %d is the same for seeds 1 and 2", i)
		}
	}
}

func TestDefaultSeedKeepsShippedSpecs(t *testing.T) {
	t.Chdir("..")
	s, err := fleetInput("fleet-consolidation-50.json", defaultSeed)
	if err != nil {
		t.Fatal(err)
	}
	if s.Fleet.Seed != "consolidation" {
		t.Errorf("default seed changed the fleet seed to %q", s.Fleet.Seed)
	}
	mix, err := mixInput(defaultSeed)
	if err != nil {
		t.Fatal(err)
	}
	for _, j := range mix.Jobs {
		if j.Seed != "" {
			t.Errorf("default seed set job %s's stream to %q", j.App, j.Seed)
		}
	}
}

func TestServeScheduleShape(t *testing.T) {
	t.Chdir("..")
	reqs := serveInput(3, serveRate, 10*time.Second, shipped(t))
	if len(reqs) != 1000 {
		t.Fatalf("%d requests, want 1000", len(reqs))
	}
	fresh := 0
	for i, r := range reqs {
		if i > 0 && r.due < reqs[i-1].due {
			t.Fatal("schedule is not in due order")
		}
		if r.fresh {
			fresh++
		}
	}
	if fresh != 50 {
		t.Errorf("%d fresh requests, want 50", fresh)
	}
}

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

func TestMetricNames(t *testing.T) {
	seen := map[string]bool{}
	for _, m := range append(append([]metricDef{}, endToEnd...), perLayer...) {
		if !nameRE.MatchString(m.name) {
			t.Errorf("metric name %q", m.name)
		}
		if !unitRE.MatchString(m.unit) {
			t.Errorf("metric %s unit %q", m.name, m.unit)
		}
		if seen[m.name] {
			t.Errorf("metric %s listed twice", m.name)
		}
		seen[m.name] = true
	}
}

// benchmarkFile mirrors BENCHMARK.json.
type benchmarkFile struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

func TestBenchmarkJSONMatchesHarness(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	dec := json.NewDecoder(bytes.NewReader(b))
	dec.DisallowUnknownFields()
	var f benchmarkFile
	if err := dec.Decode(&f); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range f.Workloads {
		names = append(names, w.Name)
		if len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %s: why must be one line of at most 200 characters", w.Name)
		}
	}
	if !slices.Equal(names, workloadNames()) {
		t.Errorf("workloads %v, harness has %v", names, workloadNames())
	}
	if len(f.EndToEnd) != len(endToEnd) {
		t.Fatalf("%d end-to-end metrics, harness has %d", len(f.EndToEnd), len(endToEnd))
	}
	largest := 0.0
	for i, m := range f.EndToEnd {
		if m.Name != endToEnd[i].name || m.Unit != endToEnd[i].unit {
			t.Errorf("end_to_end[%d] = %s %s, harness has %v", i, m.Name, m.Unit, endToEnd[i])
		}
		if m.Bound <= 0 || m.Bound > 0.25 || (m.Better != "lower" && m.Better != "higher") {
			t.Errorf("end_to_end %s: better %q bound %v", m.Name, m.Better, m.Bound)
		}
		largest = max(largest, m.Bound)
	}
	if f.EndToEnd[0].Name != "setup_s" || f.EndToEnd[0].Bound != largest {
		t.Error("setup_s must come first and carry the largest bound")
	}
	if len(f.PerLayer) != len(perLayer) {
		t.Fatalf("%d per-layer metrics, harness has %d", len(f.PerLayer), len(perLayer))
	}
	for i, m := range f.PerLayer {
		if m.Name != perLayer[i].name || m.Unit != perLayer[i].unit {
			t.Errorf("per_layer[%d] = %s %s, harness has %v", i, m.Name, m.Unit, perLayer[i])
		}
	}
}

func TestProbeCountsRepeat(t *testing.T) {
	t.Chdir("..")
	in, err := mixProbe(3, true)
	if err != nil {
		t.Fatal(err)
	}
	apps, err := profiles(in.apps)
	if err != nil {
		t.Fatal(err)
	}
	a, b := recordCore(apps, 3, 4), recordCore(apps, 3, 4)
	if a.refHash != b.refHash || len(a.ops) != len(b.ops) || a.requests != b.requests ||
		a.fills != b.fills || a.demand != b.demand || !slices.Equal(a.stats, b.stats) {
		t.Error("seed 3 recorded different layer counts on two runs")
	}
	if recordCore(apps, 4, 4).refHash == a.refHash {
		t.Error("seeds 3 and 4 replayed the same reference stream")
	}
	// Every replay must reproduce the recording's outputs.
	if _, err := a.timeTrace(); err != nil {
		t.Error(err)
	}
	if _, err := a.timePrefetch(); err != nil {
		t.Error(err)
	}
	if _, err := a.timeCache(); err != nil {
		t.Error(err)
	}
	if _, err := a.timeDecide(1); err != nil {
		t.Error(err)
	}
}

func TestQuantilesMatchPython(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	got := quantiles([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}, 4)
	if !slices.Equal(got, []float64{2.75, 5.5, 8.25}) {
		t.Errorf("quantiles = %v", got)
	}
}

// smoke runs the benchmark in smoke mode and returns its stdout.
func smoke(t *testing.T, workload string, seed int64, trace bool) string {
	t.Helper()
	var out bytes.Buffer
	o := options{workload: workload, seed: seed, seconds: 0.4, trace: trace, smoke: true, out: t.TempDir()}
	if code := run(o, &out); code != 0 {
		t.Fatalf("exit %d:\n%s", code, out.String())
	}
	return out.String()
}

// results parses the JSON result lines of a run.
func results(t *testing.T, out string) []result {
	t.Helper()
	var rs []result
	for _, line := range strings.Split(out, "\n") {
		if strings.HasPrefix(line, "{") {
			var r result
			if err := json.Unmarshal([]byte(line), &r); err != nil {
				t.Fatal(err)
			}
			rs = append(rs, r)
		}
	}
	return rs
}

func metricSet(defs []metricDef) []string {
	var out []string
	for _, m := range defs {
		out = append(out, m.name)
	}
	slices.Sort(out)
	return out
}

func checkResults(t *testing.T, out string, want []metricDef) {
	t.Helper()
	rs := results(t, out)
	if len(rs) != len(workloadDefs) {
		t.Fatalf("%d results, want one per workload:\n%s", len(rs), out)
	}
	for i, r := range rs {
		var got []string
		for k := range r.Metrics {
			got = append(got, k)
		}
		slices.Sort(got)
		if !slices.Equal(got, metricSet(want)) {
			t.Errorf("%s emits %v", workloadDefs[i].name, got)
		}
		if !r.Correct || r.Failed != 0 || r.Attempted < 1 {
			t.Errorf("%s: correct %v, %d of %d failed", workloadDefs[i].name, r.Correct, r.Failed, r.Attempted)
		}
	}
}

func TestSmokeAllWorkloads(t *testing.T) {
	t.Chdir("..")
	checkResults(t, smoke(t, "all", defaultSeed, false), endToEnd)
}

func TestSmokeTracedAllWorkloads(t *testing.T) {
	t.Chdir("..")
	checkResults(t, smoke(t, "all", 5, true), perLayer)
}

// digests returns the per-workload output digests of a run.
func digests(out string) []string {
	var ds []string
	for _, line := range strings.Split(out, "\n") {
		if strings.HasPrefix(line, "digest ") {
			ds = append(ds, line[strings.LastIndex(line, " ")+1:])
		}
	}
	return ds
}

func TestSameSeedSameDigests(t *testing.T) {
	t.Chdir("..")
	for _, w := range []string{"mix", "fleet-exact", "serve"} {
		a, b := digests(smoke(t, w, 4, false)), digests(smoke(t, w, 4, false))
		if len(a) != 1 || !slices.Equal(a, b) {
			t.Errorf("%s: digests %v then %v", w, a, b)
		}
		if c := digests(smoke(t, w, 9, false)); slices.Equal(a, c) {
			t.Errorf("%s: seeds 4 and 9 gave the same digest %v", w, a)
		}
	}
}
