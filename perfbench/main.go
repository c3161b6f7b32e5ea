// Command perfbench is the repository's end-to-end benchmark: it drives
// cmd/carserved over HTTP with one of three seeded workloads, checks the
// outputs, and prints every metric by name and unit. The last line of its
// output is one JSON object: {"correct","attempted","failed","metrics"}.
//
// With -trace 0 it runs the shipped daemon binary as a child process and
// reports the end-to-end metrics. With -trace 1 it builds the same stack
// in this process, times each layer boundary from the benchmark's own
// decorators, and reports the per-layer metrics plus the tracing overhead
// (the same in-process run with the decorators off). See README.md.
//
// Usage (run.sh builds the binaries first):
//
//	perfbench -workload rank_zipf|rank_query|context_churn -seed N -seconds S -trace 0|1
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"time"
)

// setupsPerRun is how many fresh daemons an end-to-end run sets up;
// setup_s is the median of their set-up times.
const setupsPerRun = 3

type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    int
	bin      string // carserved binary
	workdir  string // scratch space for journals and trace output
	setups   int    // set-ups per run; setup_s is their median
}

// report is the final result line.
type report struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	var o options
	flag.StringVar(&o.workload, "workload", "", "rank_zipf, rank_query or context_churn")
	flag.Int64Var(&o.seed, "seed", 1, "workload seed: picks users, contexts, targets and candidate lists")
	flag.Float64Var(&o.seconds, "seconds", 10, "measured window per run")
	flag.IntVar(&o.trace, "trace", 0, "1 = in-process traced run reporting per-layer metrics")
	flag.StringVar(&o.bin, "carserved", filepath.Join(".bench_build", "carserved"), "carserved binary under test")
	flag.StringVar(&o.workdir, "workdir", ".bench_build", "directory for journals and trace output")
	flag.Parse()
	o.setups = setupsPerRun
	rep, err := runBench(o)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	line, err := json.Marshal(rep)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

func runBench(o options) (*report, error) {
	if _, err := newWorkload(o.workload, o.seed); err != nil {
		return nil, err
	}
	if o.seconds <= 0 || o.setups < 1 || (o.trace != 0 && o.trace != 1) {
		return nil, fmt.Errorf("need -seconds > 0 and -trace 0 or 1")
	}
	if err := os.MkdirAll(o.workdir, 0o755); err != nil {
		return nil, err
	}
	fmt.Printf("env: %s\n", environment(o.workdir))
	fmt.Printf("run: workload=%s seed=%d seconds=%g trace=%d\n", o.workload, o.seed, o.seconds, o.trace)
	rep := &report{Metrics: map[string]metric{}}
	e1 := checkE1()
	rep.Attempted++
	if e1 != nil {
		fmt.Printf("check: %v\n", e1)
		rep.Failed++
	}
	var err error
	if o.trace == 1 {
		err = runTraced(o, rep)
	} else {
		err = runE2E(o, rep)
	}
	if err != nil {
		return nil, err
	}
	rep.Correct = rep.Failed == 0
	fmt.Printf("result: seed=%d attempted=%d failed=%d fail_ratio=%g correct=%v\n",
		o.seed, rep.Attempted, rep.Failed, float64(rep.Failed)/float64(rep.Attempted), rep.Correct)
	return rep, nil
}

// runE2E measures the shipped daemon as a child process: o.setups fresh
// daemons are set up (the last one is measured), then one window runs.
func runE2E(o options, rep *report) error {
	// The load generator allocates per request; collecting less often
	// keeps its pauses out of the daemon's numbers. (The traced run leaves
	// the default, since the stack under test shares its heap.)
	defer debug.SetGCPercent(debug.SetGCPercent(400))
	cal, err := newCalibrator()
	if err != nil {
		return err
	}
	defer cal.close()
	var (
		setups phases // one block per set-up, holding its time in seconds
		d      *daemon
		w      traffic
	)
	cal.idle = func() {
		if d != nil {
			d.waitIdle()
		}
	}
	cal.cpu = func() int64 {
		if d != nil {
			return d.cpuNS()
		}
		return 0
	}
	for i := 0; i < o.setups; i++ {
		var err error
		w, _ = newWorkload(o.workload, o.seed)
		d = nil
		cal.block(func() []*latencies {
			l := newLatencies()
			if d, err = startDaemon(o.bin, o.workdir, w.rules()); err == nil {
				err = w.setup(d.base, nil)
			}
			l.add(time.Since(l.start).Seconds())
			setups = append(setups, l)
			return []*latencies{l}
		})
		if err != nil {
			if d != nil {
				w.close()
				d.stop(false)
			}
			return fmt.Errorf("setup: %w", err)
		}
		if i < o.setups-1 {
			w.close()
			d.stop(false)
			d = nil
		}
	}
	defer d.stop(false)
	defer w.close()

	sc := newConn(d.base, nil)
	before, err := sc.stats()
	if err != nil {
		return err
	}
	steal := startSteal()
	res, err := w.run(time.Duration(o.seconds*float64(time.Second)), cal)
	if err == nil {
		err = cal.err
	}
	if err != nil {
		return err
	}
	setupS := setups.blockQ(0.5, 1, true)
	fmt.Printf("setup: %d set-ups, median %.3f s, %.3f s at reference speed\n", len(setups), setups.q(0.5), setupS)
	cpuPerOp := res.ops.blockCPU()
	fmt.Printf("calibration: %d runs, ns per unit %.0f (reference %.0f); unscaled: primary p50 %.6g us, %.6g ops/s\n",
		len(cal.all), cal.all, refUnitNS, res.lat.blockQ(0.5, res.latMinN, false), res.ops.blockRate(false))
	fmt.Printf("host: %.1f%% of CPU time stolen by the hypervisor during the window\n", steal.percent())
	after, err := sc.stats()
	if err != nil {
		return err
	}
	sc.close()
	rss, err := d.peakRSSMB()
	if err != nil {
		return err
	}
	ref, err := newReference(w.rules())
	if err != nil {
		return err
	}
	if err := w.check(ref, res); err != nil {
		return err
	}
	w.close()
	if err := d.stop(true); err != nil {
		return err
	}

	rep.Attempted += res.attempted
	rep.Failed += res.failed
	res.named["setup_s"] = metric{setupS, "s"}
	res.named["cpu_us_per_op"] = metric{cpuPerOp, "us"}
	res.named["lat_p50_us"] = metric{res.p50(), "us"}
	res.named["ops_per_s"] = metric{res.opsPerSec(), "1/s"}
	res.named["peak_rss_mb"] = metric{rss, "MB"}
	res.named["fail_ratio"] = metric{float64(rep.Failed) / float64(rep.Attempted), "1"}
	printMetrics("metric", res.named)
	printCounters("counters (untraced daemon)", counters(before, after, res))
	fmt.Printf("samples: primary op n=%d p50=%.0f p90=%.0f p95=%.0f p99=%.0f p99.9=%.0f us; loadgen late p50=%.0f p99=%.0f us\n",
		res.lat.n(), res.lat.q(0.5), res.lat.q(0.9), res.lat.q(0.95), res.lat.q(0.99), res.lat.q(0.999),
		quantile(res.late, 0.5), quantile(res.late, 0.99))

	rep.Metrics["setup_s"] = metric{setupS, "s"}
	rep.Metrics["peak_rss_mb"] = metric{rss, "MB"}
	rep.Metrics["cpu_us_per_op"] = metric{cpuPerOp, "us"}
	for k, m := range rep.Metrics {
		rep.Metrics[k] = metric{finite(m.Value), m.Unit}
	}
	return nil
}

// finite maps a latency that includes failed ops (+Inf) to a large
// finite number JSON can carry; such a run is already marked incorrect.
func finite(v float64) float64 {
	if v > 1e15 {
		return 1e15
	}
	return v
}

func printMetrics(prefix string, ms map[string]metric) {
	for _, k := range sortedKeys(ms) {
		fmt.Printf("%s: %s = %.6g %s\n", prefix, k, ms[k].Value, ms[k].Unit)
	}
}

func printCounters(title string, cs map[string]float64) {
	fmt.Printf("%s:", title)
	for _, k := range sortedKeys(cs) {
		fmt.Printf(" %s=%.4g", k, cs[k])
	}
	fmt.Println()
}

// counters derives the /v1/stats counters over the window.
func counters(b, a serverStats, r *runResult) map[string]float64 {
	ratio := func(x, y int64) float64 {
		if y == 0 {
			return 0
		}
		return float64(x) / float64(y)
	}
	hits := a.Cache.Hits - b.Cache.Hits + a.Cache.Coalesced - b.Cache.Coalesced
	lookups := hits + a.Cache.Misses - b.Cache.Misses
	phits := a.Plans.Hits - b.Plans.Hits
	pmiss := a.Plans.Misses - b.Plans.Misses
	refreshes := a.Plans.Refreshed - b.Plans.Refreshed
	appends := a.Journal.Appends - b.Journal.Appends
	fsyncs := a.Journal.Fsyncs - b.Journal.Fsyncs
	evals := a.Subs.Evals - b.Subs.Evals
	ops := int64(r.measured)
	return map[string]float64{
		"rankcache.hit_ratio":       ratio(hits, lookups),
		"rankcache.lookups":         float64(lookups),
		"rankcache.evictions":       float64(a.Cache.Evicted - b.Cache.Evicted),
		"plancache.hit_ratio":       ratio(phits, phits+pmiss),
		"plancache.compiles":        float64(pmiss - refreshes),
		"plancache.refreshes":       float64(refreshes),
		"plancache.compiles_per_op": ratio(pmiss-refreshes, ops),
		"journal.appends":           float64(appends),
		"journal.records_per_fsync": ratio(appends, fsyncs),
		"journal.fsyncs_per_apply":  ratio(fsyncs, int64(r.applies)),
		"subs.evals_per_apply":      ratio(evals, int64(r.applies)),
		"subs.useful_ratio":         ratio(a.Subs.Events-b.Subs.Events, evals),
		"subs.skipped":              float64(a.Subs.Skipped - b.Subs.Skipped),
		"subs.lagged":               float64(a.Subs.Lagged - b.Subs.Lagged),
		"sessions.live":             float64(a.Sessions),
		"event.space_size":          float64(a.Events),
	}
}

func sortedKeys[V any](m map[string]V) []string {
	ks := make([]string, 0, len(m))
	for k := range m {
		ks = append(ks, k)
	}
	sort.Strings(ks)
	return ks
}

// environment describes the machine the numbers come from. fsync and
// loopback figures are this host's (often a container on shared
// hardware), not a storage device's or a network's.
func environment(dir string) string {
	return fmt.Sprintf(`{"nproc":%d,"gomaxprocs":%d,"go":%q,"cpu":%q,"kernel":%q,"snapdir_fs":%q}`,
		runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), cpuModel(), kernelRelease(), fsType(dir))
}
