package experiments

import (
	"fmt"

	"repro/internal/cluster"
	"repro/internal/sched"
	"repro/internal/workload"
)

// featureSpecs lists every run one application's feature vector needs.
func (c *Context) featureSpecs(app *workload.Profile) []sched.Spec {
	cfg := c.R.MachineConfig()
	specs := []sched.Spec{sched.Alone(cfg, app, 1, 0)}
	for th := 2; th <= 8; th++ {
		specs = append(specs, sched.Alone(cfg, app, th, 0))
	}
	threads := sched.CapThreads(app, 4)
	for w := 2; w <= 12; w++ {
		specs = append(specs, sched.Alone(cfg, app, threads, w))
	}
	specs = append(specs, c.prefetchSpecs(app)...)
	return append(specs, c.bandwidthSpecs(app)...)
}

// FeatureVector builds the 19-feature characterization vector of §3.5
// for one application: execution time versus thread count (7 features,
// 2-8 threads), execution time versus LLC allocation (10 features, 2-11
// ways), prefetcher sensitivity (1), and bandwidth sensitivity (1).
// Values are raw here; NormalizeFeatures rescales per dimension.
func (c *Context) FeatureVector(app *workload.Profile) []float64 {
	c.submit(c.featureSpecs(app))
	var vec []float64
	t1 := c.singleSeconds(app, 1, 0)
	for th := 2; th <= 8; th++ {
		vec = append(vec, c.singleSeconds(app, th, 0)/t1)
	}
	threads := sched.CapThreads(app, 4)
	full := c.singleSeconds(app, threads, 12)
	for w := 2; w <= 11; w++ {
		vec = append(vec, c.singleSeconds(app, threads, w)/full)
	}
	vec = append(vec, c.PrefetchSensitivity(app))
	vec = append(vec, c.BandwidthSensitivity(app))
	return vec
}

// Fig5Result carries the clustering outcome.
type Fig5Result struct {
	Table      *Table
	Dendrogram string
	Groups     [][]string // cluster memberships by app name
	Reps       []string   // centroid-closest representative per cluster
}

// Fig5Clustering reproduces Figure 5 and Table 3: hierarchical
// single-linkage clustering of the 19-feature vectors, cut at 0.9, with
// centroid-closest representatives.
func (c *Context) Fig5Clustering() *Fig5Result {
	var specs []sched.Spec
	for _, app := range c.Apps {
		specs = append(specs, c.featureSpecs(app)...)
	}
	c.submit(specs)

	items := make([]cluster.Item, len(c.Apps))
	for i, app := range c.Apps {
		items[i] = cluster.Item{Name: app.Name, Vec: c.FeatureVector(app)}
	}
	cluster.NormalizeFeatures(items)
	merges := cluster.SingleLinkage(items)
	groups := cluster.CutAtDistance(merges, len(items), 0.9)

	res := &Fig5Result{Dendrogram: cluster.Dendrogram(items, merges)}
	t := &Table{Title: "Figure 5 / Table 3: single-linkage clusters (cut at 0.9)",
		Columns: []string{"cluster", "representative", "members"}}
	for gi, g := range groups {
		rep := items[cluster.Representative(items, g)].Name
		var names []string
		for _, idx := range g {
			names = append(names, items[idx].Name)
		}
		res.Groups = append(res.Groups, names)
		res.Reps = append(res.Reps, rep)
		t.Add(fmt.Sprintf("C%d", gi+1), rep, join(names, " "))
	}
	t.Note("paper cut at 0.9 yields 6 multi-member clusters (plus fluidanimate alone); representatives: 429.mcf, 459.GemsFDTD, ferret, fop, dedup, batik")
	res.Table = t
	return res
}

func join(xs []string, sep string) string {
	out := ""
	for i, x := range xs {
		if i > 0 {
			out += sep
		}
		out += x
	}
	return out
}
