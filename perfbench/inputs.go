package main

import (
	"encoding/json"
	"fmt"
	"math"
	"math/rand/v2"
	"os"
	"path/filepath"
	"sort"
	"time"

	"repro/internal/scenario"
)

// defaultSeed leaves every shipped spec unchanged, so the fleet
// workloads' reports must equal the committed goldens byte for byte.
const defaultSeed = 0

func specPath(name string) string   { return filepath.Join("examples", "scenarios", name) }
func goldenPath(name string) string { return filepath.Join("internal", "fleet", "testdata", name) }

// seedLabel is the rng-stream suffix a non-default seed adds.
func seedLabel(seed int64) string { return fmt.Sprintf("s%d", seed) }

// mixInput is latency-3batch.json with each job's rng stream renamed by
// the seed (the default seed keeps the engine's conventional names).
func mixInput(seed int64) (*scenario.Scenario, error) {
	s, err := scenario.ParseFile(specPath("latency-3batch.json"))
	if err != nil {
		return nil, err
	}
	if seed != defaultSeed {
		for i := range s.Jobs {
			s.Jobs[i].Seed = fmt.Sprintf("%s-j%d", seedLabel(seed), i)
		}
	}
	return s, s.Validate()
}

// fleetInput is a shipped fleet spec whose trace seed is extended by
// the benchmark seed.
func fleetInput(file string, seed int64) (*scenario.Scenario, error) {
	s, err := scenario.ParseFile(specPath(file))
	if err != nil {
		return nil, err
	}
	if !s.IsFleet() {
		return nil, fmt.Errorf("%s has no fleet block", file)
	}
	if seed != defaultSeed {
		base := s.Fleet.Seed
		if base == "" {
			base = "fleet"
		}
		s.Fleet.Seed = base + "-" + seedLabel(seed)
	}
	return s, s.Validate()
}

// Serve's offered load. The rate keeps the two-core reference host well
// below saturation (warm requests take about a millisecond of server
// time, fresh pair mixes a few tens), and the window yields enough
// requests for a p99 with ten samples beyond it. Fresh mixes are one
// request in twenty: each simulates for tens of milliseconds, and the
// warm requests arriving meanwhile compete with it for the cores, which
// at one in ten made the median swing with the host's background load.
const (
	serveRate      = 100.0 // requests per second, open loop
	serveFreshFrac = 0.05  // share of requests that are fresh pair mixes
	serveLimit     = 100 * time.Millisecond
)

// servedSpecs are the shipped specs serve repeats. They are cheap to
// replay warm; fleet-consolidation-50's report must equal its golden.
var servedSpecs = []string{
	"consolidation-4app.json",
	"stream-pileon.json",
	"oversubscribed-10job.json",
	"fleet-dynamic-8.json",
	"fleet-utility-50.json",
	"fleet-consolidation-50.json",
}

// Fresh pair mixes draw a latency and a batch application from these
// lists; their jobs carry seeded rng streams, so every fresh mix misses
// the memo and the disk store and is simulated.
var (
	freshLatency = []string{"xalan", "fop", "h2", "lusearch"}
	freshBatch   = []string{"ferret", "dedup", "batik", "vips"}
)

// request is one scheduled submission of the serve workload.
type request struct {
	due   time.Duration // offset from the start of the window
	name  string        // shipped file name, or the fresh mix's name
	want  string        // scenario name the report must carry
	body  []byte
	fresh bool
}

// serveInput builds the open-loop schedule: n = rate × window arrivals
// at uniformly random times, the arrival pattern of a Poisson process
// conditioned on its count. The seed picks the times, which requests are
// fresh, and the fresh mixes' rng streams. The number of fresh requests
// is fixed, fresh mixes cycle through every latency × batch pairing, and
// repeated requests cycle through servedSpecs, so every seed offers the
// same mix of work.
func serveInput(seed int64, rate float64, window time.Duration, shipped map[string]shippedSpec) []request {
	rng := rand.New(rand.NewPCG(uint64(seed), 0x5e7fe))
	n := int(math.Round(rate * window.Seconds()))
	dues := make([]time.Duration, n)
	for i := range dues {
		dues[i] = time.Duration(rng.Float64() * float64(window))
	}
	sort.Slice(dues, func(i, j int) bool { return dues[i] < dues[j] })
	fresh := make([]bool, n)
	for _, i := range rng.Perm(n)[:int(math.Round(serveFreshFrac*float64(n)))] {
		fresh[i] = true
	}
	reqs := make([]request, n)
	repeated, fresher := 0, 0
	for i, due := range dues {
		if fresh[i] {
			name := fmt.Sprintf("fresh-%s-%d", seedLabel(seed), i)
			lat := freshLatency[fresher%len(freshLatency)]
			batch := freshBatch[fresher/len(freshLatency)%len(freshBatch)]
			fresher++
			reqs[i] = request{due: due, name: name, want: name, fresh: true, body: freshMix(name, lat, batch)}
			continue
		}
		file := servedSpecs[repeated%len(servedSpecs)]
		repeated++
		reqs[i] = request{due: due, name: file, want: shipped[file].sc.Name, body: shipped[file].body}
	}
	return reqs
}

// freshMix is a two-job scenario (one latency job beside one looping
// batch job, shared LLC) whose rng streams are named after the request.
func freshMix(name, latency, batch string) []byte {
	s := scenario.Scenario{
		Name: name,
		Jobs: []scenario.JobDef{
			{App: latency, Role: scenario.RoleLatency, Threads: 2, Seed: name + "-fg"},
			{App: batch, Role: scenario.RoleBatch, Threads: 2, Seed: name + "-bg"},
		},
	}
	b, err := json.Marshal(s)
	if err != nil {
		panic(err) // a fixed struct of strings and ints always marshals
	}
	return b
}

// shippedSpec is one spec serve repeats, as bytes and parsed.
type shippedSpec struct {
	body []byte
	sc   *scenario.Scenario
}

// readShipped loads the specs serve repeats.
func readShipped() (map[string]shippedSpec, error) {
	out := map[string]shippedSpec{}
	for _, f := range servedSpecs {
		b, err := os.ReadFile(specPath(f))
		if err != nil {
			return nil, err
		}
		sc, err := scenario.Parse(b)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", f, err)
		}
		out[f] = shippedSpec{body: b, sc: sc}
	}
	return out, nil
}
