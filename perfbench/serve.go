package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/sched"
	"repro/internal/server"
)

// serveEnv is a running service: a core.Session over a pre-filled disk
// store, server.New over it, and an http.Server on a loopback port.
type serveEnv struct {
	dir  string
	sess *core.Session
	srv  *server.Server
	hs   *http.Server
	base string
	done chan error
}

// startServe fills a fresh disk store with the shipped specs' results
// through a throwaway session, then starts the service on a new session
// over that store, so the repeated specs are served from disk first and
// from the memo afterwards.
func startServe(dir string, shipped map[string]shippedSpec, tr *obs.Tracer) (*serveEnv, error) {
	if err := os.RemoveAll(dir); err != nil {
		return nil, err
	}
	cfg := core.RunConfig{Quick: true, CacheDir: dir}
	fill, err := core.NewSession(cfg)
	if err != nil {
		return nil, err
	}
	for _, f := range servedSpecs {
		if _, err := fill.RunSpec(shipped[f].body, core.RunConfig{}); err != nil {
			return nil, fmt.Errorf("fill %s: %w", f, err)
		}
	}
	// The service's engine runs one simulation at a time, so a fresh
	// mix never holds both cores of the reference host: the other core
	// stays free for HTTP and the warm requests, as a latency-sensitive
	// service sharing a socket with batch work would be deployed.
	cfg.Parallelism = 1
	sess, err := core.NewSessionWith(cfg, tr)
	if err != nil {
		return nil, err
	}
	// The limiter admits twenty times the offered rate, so a refusal is
	// a failure rather than load shaping.
	srv := server.New(sess, server.Options{
		RatePerSec:  20 * serveRate,
		Burst:       1000,
		Queue:       4096,
		Concurrency: runtime.NumCPU(),
		MaxRuns:     1 << 16,
	})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		srv.Drain()
		return nil, err
	}
	e := &serveEnv{dir: dir, sess: sess, srv: srv, hs: &http.Server{Handler: srv.Handler()},
		base: "http://" + ln.Addr().String(), done: make(chan error, 1)}
	go func() { e.done <- e.hs.Serve(ln) }()
	resp, err := http.Get(e.base + "/healthz")
	if err == nil {
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			err = fmt.Errorf("healthz answered %s", resp.Status)
		}
	}
	if err != nil {
		e.close()
		return nil, err
	}
	return e, nil
}

// close stops the listener, drains the server, and removes the store.
func (e *serveEnv) close() {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := e.hs.Shutdown(ctx); err != nil {
		e.hs.Close()
	}
	if err := <-e.done; err != nil && !errors.Is(err, http.ErrServerClosed) {
		fmt.Fprintln(os.Stderr, "perfbench: serve:", err)
	}
	e.srv.Drain()
	os.RemoveAll(e.dir)
}

// reqResult is the client's record of one request.
type reqResult struct {
	lat     time.Duration // from the due time to the report's last byte
	lag     time.Duration // how late the generator sent it
	polls   int
	refused bool
	err     string
	kind    string
	name    string
	report  string
}

// runClient sends reqs open loop from one process over at most conns
// connections: each request goes out at its due time whether or not
// earlier ones have finished.
func runClient(base string, reqs []request, conns int) ([]reqResult, time.Duration) {
	tp := &http.Transport{MaxConnsPerHost: conns, MaxIdleConnsPerHost: conns, DisableCompression: true}
	defer tp.CloseIdleConnections()
	client := &http.Client{Transport: tp, Timeout: time.Minute}
	results := make([]reqResult, len(reqs))
	var wg sync.WaitGroup
	start := time.Now()
	for i := range reqs {
		due := start.Add(reqs[i].due)
		time.Sleep(time.Until(due))
		wg.Add(1)
		go func() {
			defer wg.Done()
			results[i] = doRequest(client, base, reqs[i].body, due)
		}()
	}
	wg.Wait()
	return results, time.Since(start)
}

// doRequest submits one spec and polls its report until it is ready.
func doRequest(client *http.Client, base string, body []byte, due time.Time) (res reqResult) {
	res.lag = time.Since(due)
	resp, err := client.Post(base+"/v1/runs", "application/json", bytes.NewReader(body))
	if err != nil {
		res.err = err.Error()
		return res
	}
	var sub struct {
		ReportURL string `json:"report_url"`
	}
	err = json.NewDecoder(resp.Body).Decode(&sub)
	resp.Body.Close()
	switch {
	case resp.StatusCode == http.StatusTooManyRequests || resp.StatusCode == http.StatusServiceUnavailable:
		res.refused = true
		res.err = "refused: " + resp.Status
		return res
	case resp.StatusCode != http.StatusAccepted || err != nil || sub.ReportURL == "":
		res.err = fmt.Sprintf("submit: %s %v", resp.Status, err)
		return res
	}
	backoff := 100 * time.Microsecond
	for {
		res.polls++
		resp, err := client.Get(base + sub.ReportURL)
		if err != nil {
			res.err = err.Error()
			return res
		}
		b, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			res.err = err.Error()
			return res
		}
		switch resp.StatusCode {
		case http.StatusOK:
			res.lat = time.Since(due)
			var env core.Envelope
			if err := json.Unmarshal(b, &env); err != nil {
				res.err = "decode envelope: " + err.Error()
				return res
			}
			res.kind, res.name, res.report = env.Kind, env.Name, env.Report
			return res
		case http.StatusAccepted:
			time.Sleep(backoff)
			backoff = min(2*backoff, 8*time.Millisecond)
		default:
			res.err = fmt.Sprintf("report: %s %s", resp.Status, strings.TrimSpace(string(b)))
			return res
		}
	}
}

// serveWindow is one open-loop window's client-side record.
type serveWindow struct {
	lats, lags []float64 // seconds, successful requests
	warmLats   []float64 // repeated-spec requests
	goodput    float64   // requests within the limit per second of wall
	wall       time.Duration
	polls      int
	refused    int
	peakMB     float64
}

// goldenSpec is the served spec whose report has a committed golden.
const goldenSpec = "fleet-consolidation-50.json"

// goldenReport is the report serve must return for goldenSpec: the
// spec's description line, then the golden text.
func goldenReport(shipped map[string]shippedSpec) (string, error) {
	g, err := os.ReadFile(goldenPath("fleet50_quick.golden"))
	if err != nil {
		return "", err
	}
	return shipped[goldenSpec].sc.Description + "\n" + string(g), nil
}

// checkResponses verifies every report and folds them into the run
// digest: a repeated spec must reproduce its first response's report,
// and goldenSpec must reproduce its golden.
func checkResponses(reqs []request, results []reqResult, golden string, first map[string]string, oc *outcome) string {
	h := bytes.Buffer{}
	for i, r := range results {
		oc.attempted++
		q := reqs[i]
		if r.err != "" {
			oc.fail("request %d (%s): %s", i, q.name, r.err)
			continue
		}
		if r.name != q.want || r.report == "" {
			oc.fail("request %d: report for %q, want %q", i, r.name, q.want)
			continue
		}
		d := digest([]byte(r.report))
		switch {
		case q.fresh:
			if r.kind != core.KindScenario {
				oc.fail("request %d: fresh mix reported kind %q", i, r.kind)
			}
		case first[q.name] == "":
			first[q.name] = d
		case first[q.name] != d:
			oc.fail("request %d (%s): digest %s differs from %s", i, q.name, d, first[q.name])
		}
		if q.name == goldenSpec && r.report != golden {
			oc.fail("request %d: %s report differs from the golden", i, q.name)
		}
		fmt.Fprintf(&h, "%s %s\n", q.name, d)
	}
	return digest(h.Bytes())
}

func summarize(reqs []request, results []reqResult, wall time.Duration) serveWindow {
	var w serveWindow
	within := 0
	for i, r := range results {
		w.polls += r.polls
		if r.refused {
			w.refused++
		}
		if r.err != "" {
			continue
		}
		w.lats = append(w.lats, r.lat.Seconds())
		w.lags = append(w.lags, r.lag.Seconds())
		if !reqs[i].fresh {
			w.warmLats = append(w.warmLats, r.lat.Seconds())
		}
		if r.lat <= serveLimit {
			within++
		}
	}
	w.wall = wall
	w.goodput = float64(within) / wall.Seconds()
	return w
}

// serveOnce runs one open-loop window against env.
func serveOnce(env *serveEnv, reqs []request, golden string, first map[string]string, oc *outcome) (serveWindow, string) {
	mem := startMemSampler()
	results, wall := runClient(env.base, reqs, runtime.NumCPU())
	peak := mem.Stop()
	win := summarize(reqs, results, wall)
	win.peakMB = peak
	return win, checkResponses(reqs, results, golden, first, oc)
}

func runServe(d workloadDef, o options) (*outcome, error) {
	oc := &outcome{}
	window := time.Duration(o.seconds * float64(time.Second))
	if o.trace {
		window /= 2
	}
	shipped, err := readShipped()
	if err != nil {
		return nil, err
	}
	golden, err := goldenReport(shipped)
	if err != nil {
		return nil, err
	}
	reqs := serveInput(o.seed, serveRate, window, shipped)
	rep := 0
	env, setup, err := timeSetup(o.smoke, func() (*serveEnv, error) {
		rep++
		return startServe(filepath.Join(o.out, fmt.Sprintf("serve-store-%d-%d", os.Getpid(), rep)), shipped, nil)
	}, func(e *serveEnv) { e.close() })
	oc.setup = setup
	if err != nil {
		return nil, fmt.Errorf("setup: %w", err)
	}
	first := map[string]string{}
	plain, dg := serveOnce(env, reqs, golden, first, oc)
	env.close()
	oc.opSecs, oc.peakMB, oc.workRate, oc.digest = plain.lats, plain.peakMB, plain.goodput, dg
	oc.lines = serveLines(plain, len(reqs), window)
	if !o.trace {
		return oc, nil
	}

	tr := obs.New(1 << 16)
	tenv, err := startServe(filepath.Join(o.out, fmt.Sprintf("serve-store-%d-traced", os.Getpid())), shipped, tr)
	if err != nil {
		return nil, fmt.Errorf("traced setup: %w", err)
	}
	defer tenv.close()
	before := tenv.sess.Stats()
	traced, tdg := serveOnce(tenv, reqs, golden, first, oc)
	if tdg != dg {
		oc.fail("traced digest %s differs from untraced %s", tdg, dg)
	}
	delta := tenv.sess.Stats().Delta(before)
	prom, err := scrape(tenv.base + "/metrics")
	if err != nil {
		return nil, err
	}
	oc.layer = serveLayers(plain, traced, delta, prom, tr, len(reqs))
	if err := runProbes(d, o, tr, oc, tenv.sess); err != nil {
		return nil, err
	}
	if rs := oc.layer["core.run_spec_ms"]; rs > 0 {
		oc.layer["server.overhead_ms"] = median(traced.warmLats)*1000 - rs
	}
	return oc, writeTrace(tr, d.name, o, oc)
}

func serveLines(win serveWindow, n int, window time.Duration) []string {
	t, label := tail(win.lats)
	lag, lagLabel := tail(win.lags)
	return []string{
		fmt.Sprintf("offered load: %d requests over %s (open loop, %.0f/s, %.0f%% fresh pair mixes), latency limit %s",
			n, window, serveRate, serveFreshFrac*100, serveLimit),
		fmt.Sprintf("req_p50_ms = %.6g ms, req_%s_ms = %.6g ms (n=%d)", median(win.lats)*1000, label, t*1000, len(win.lats)),
		fmt.Sprintf("slo_goodput_per_s = %.6g requests/s", win.goodput),
		fmt.Sprintf("client lag %s = %.6g ms; polls per request %.3g; refused %d",
			lagLabel, lag*1000, float64(win.polls)/float64(max(n, 1)), win.refused),
	}
}

// serveLayers derives serve's operation-level per-layer metrics.
func serveLayers(plain, traced serveWindow, delta sched.Stats, prom map[string]float64, tr *obs.Tracer, n int) map[string]float64 {
	l := map[string]float64{}
	if n == 0 {
		return l
	}
	per := func(v float64) float64 { return v / float64(n) }
	l["sched.sims"] = per(float64(delta.Simulations))
	l["sched.memo_hits"] = per(float64(delta.MemoHits))
	l["sched.disk_hits"] = per(float64(delta.DiskHits))
	l["machine.busy_s"] = per(delta.BusySeconds)
	phase := map[string]float64{}
	for _, p := range delta.Phases {
		phase[p.Name] = p.Seconds
	}
	l["sched.queue_wait_s"] = per(phase["queue-wait"])
	l["sched.memo_wait_s"] = per(phase["memo-wait"])
	l["sched.disk_load_s"] = per(phase["disk-load"])
	l["sched.disk_save_s"] = per(phase["disk-save"])
	if c := prom["cachepart_run_queue_wait_seconds_count"]; c > 0 {
		l["server.queue_wait_ms"] = prom["cachepart_run_queue_wait_seconds_sum"] / c * 1000
	}
	l["server.polls_per_req"] = per(float64(traced.polls))
	l["server.refused"] = prom[`cachepart_runs_rejected_total{reason="rate_limit"}`] +
		prom[`cachepart_runs_rejected_total{reason="queue_full"}`]
	if traced.wall > 0 && delta.Parallelism > 0 {
		l["sched.pool_eff"] = delta.BusySeconds / (traced.wall.Seconds() * float64(delta.Parallelism))
	}
	l["client.lag_p99_ms"] = quantiles(traced.lags, 100)[98] * 1000
	if m := median(plain.lats); m > 0 {
		l["obs.overhead_frac"] = median(traced.lats)/m - 1
	}
	var runs []obs.SpanID
	for _, r := range tr.Snapshot() {
		if r.Name == "run" {
			runs = append(runs, r.ID)
		}
	}
	spans := spanTotals(tr, runs)
	l["fleet.compile_s"] = per(spans["compile"].Seconds())
	l["fleet.oracle_s"] = per(spans["oracle"].Seconds())
	l["fleet.episode_s"] = per(spans["episode"].Seconds())
	return l
}

// scrape reads a Prometheus text page into name{labels} -> value.
func scrape(url string) (map[string]float64, error) {
	resp, err := http.Get(url)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	out := map[string]float64{}
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		line := sc.Text()
		i := strings.LastIndexByte(line, ' ')
		if i < 0 || strings.HasPrefix(line, "#") {
			continue
		}
		if v, err := strconv.ParseFloat(line[i+1:], 64); err == nil {
			out[line[:i]] = v
		}
	}
	return out, sc.Err()
}
