package main

import (
	"fmt"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"
)

// tracedRoutes are the routes whose handler and network time is split out.
var tracedRoutes = []string{"rank", "rank_batch", "session_put"}

// pass is one in-process run's outcome.
type pass struct {
	res      *runResult
	counters map[string]float64
	allocs   float64
}

// runTraced runs the workload twice on the in-process stack, decorators
// off and then on, and reports the per-layer metrics of the traced pass
// with the tracing overhead between the two.
func runTraced(o options, rep *report) error {
	d := time.Duration(o.seconds * float64(time.Second))
	plain, _, err := inprocPass(o, d, nil, rep)
	if err != nil {
		return err
	}
	tr := newTracer()
	traced, layers, err := inprocPass(o, d, tr, rep)
	if err != nil {
		return err
	}
	printCounters("counters (in-process, untraced)", plain.counters)
	printCounters("counters (in-process, traced)  ", traced.counters)

	p0, p1 := plain.res.p50(), traced.res.p50()
	layers["trace.overhead_p50_pct"] = pct(p1-p0, p0)
	layers["trace.overhead_ops_pct"] = pct(plain.res.opsPerSec()-traced.res.opsPerSec(), plain.res.opsPerSec())
	fmt.Printf("trace overhead: primary p50 %.1fus untraced -> %.1fus traced; ops/s %.1f -> %.1f\n",
		p0, p1, plain.res.opsPerSec(), traced.res.opsPerSec())
	for _, k := range sortedKeys(layers) {
		rep.Metrics[k] = metric{layers[k], layerUnit(k)}
	}
	printMetrics("layer", rep.Metrics)
	return nil
}

func pct(x, base float64) float64 {
	if base == 0 {
		return 0
	}
	return 100 * x / base
}

// inprocPass sets up and measures one in-process stack. With a tracer it
// also replays sampled requests through the core in a quiet phase and
// returns the per-layer metrics.
func inprocPass(o options, d time.Duration, tr *tracer, rep *report) (*pass, map[string]float64, error) {
	w, _ := newWorkload(o.workload, o.seed)
	defer w.close()
	p, err := startInproc(o.workdir, w.rules(), tr)
	if err != nil {
		return nil, nil, err
	}
	defer p.stop()
	if err := w.setup(p.base, tr); err != nil {
		return nil, nil, fmt.Errorf("setup: %w", err)
	}
	sc := newConn(p.base, nil)
	defer sc.close()
	before, err := sc.stats()
	if err != nil {
		return nil, nil, err
	}
	if tr != nil {
		tr.reset()
		p.bytes.reset()
	}
	cal, err := newCalibrator()
	if err != nil {
		return nil, nil, err
	}
	defer cal.close()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	calAllocs := cal.mallocs
	res, err := w.run(d, cal)
	if err == nil {
		err = cal.err
	}
	if err != nil {
		return nil, nil, err
	}
	runtime.ReadMemStats(&m1)
	m1.Mallocs -= cal.mallocs - calAllocs
	after, err := sc.stats()
	if err != nil {
		return nil, nil, err
	}
	ps := &pass{res: res, counters: counters(before, after, res),
		allocs: float64(m1.Mallocs-m0.Mallocs) / float64(max(res.measured, 1))}
	var layers map[string]float64
	if tr != nil {
		spans := tr.snapshot()
		core, err := p.replayCore(res.replay)
		if err != nil {
			return nil, nil, fmt.Errorf("core replay: %w", err)
		}
		layers = summarize(spans, p.bytes, core)
		for k, v := range ps.counters {
			layers[k] = v
		}
		delete(layers, "plancache.compiles_per_op")
		delete(layers, "journal.fsyncs_per_apply")
		layers["proc.allocs_per_op"] = ps.allocs
		layers["loadgen.late_us.p99"] = quantile(res.late, 0.99)
		path := filepath.Join(o.workdir, "trace-"+o.workload+".csv")
		if err := writeSpans(path, spans); err != nil {
			return nil, nil, err
		}
		fmt.Printf("trace: %d spans written to %s\n", len(spans), path)
	}
	ref, err := newReference(w.rules())
	if err != nil {
		return nil, nil, err
	}
	if err := w.check(ref, res); err != nil {
		return nil, nil, err
	}
	rep.Attempted += res.attempted
	rep.Failed += res.failed
	return ps, layers, nil
}

// summarize turns the window's spans into the per-layer metrics.
func summarize(spans []span, bc *byteCounts, core coreStats) map[string]float64 {
	out := map[string]float64{}
	link(spans)
	children := map[int][]span{}
	byName := map[string][]span{}
	clientByReq := map[string]span{}
	for _, s := range spans {
		byName[s.name] = append(byName[s.name], s)
		if s.parent >= 0 {
			children[s.parent] = append(children[s.parent], s)
		}
		if s.req != "" && strings.HasPrefix(s.name, "client.") {
			clientByReq[s.req] = s
		}
	}
	durs := func(name string) []float64 {
		var xs []float64
		for _, s := range byName[name] {
			xs = append(xs, us(s.dur()))
		}
		return xs
	}
	for _, route := range tracedRoutes {
		var net, self []float64
		for i, s := range spans {
			if s.name != "handler."+route {
				continue
			}
			if c, ok := clientByReq[s.req]; ok {
				net = append(net, us(c.dur()-s.dur()))
			}
			self = append(self, us(selfTime(s, children[i])))
		}
		out["net.overhead_us.p50."+route] = median(net)
		out["handler.self_us.p50."+route] = quantile(self, 0.50)
		out["handler.self_us.p99."+route] = quantile(self, 0.99)
	}
	for _, kind := range []string{"hit", "miss"} {
		xs := durs("backend.rank." + kind)
		out["backend.rank_us."+kind+".p50"] = quantile(xs, 0.50)
		out["backend.rank_us."+kind+".p99"] = quantile(xs, 0.99)
	}
	out["backend.rankbatch_us.p50"] = median(durs("backend.rank_batch"))
	sets := durs("backend.set_session")
	out["backend.set_session_us.p50"] = quantile(sets, 0.50)
	out["backend.set_session_us.p99"] = quantile(sets, 0.99)

	fsyncs := byName["journal.fsync"]
	sort.Slice(fsyncs, func(i, j int) bool { return fsyncs[i].start < fsyncs[j].start })
	var apply []float64
	for _, s := range byName["backend.set_session"] {
		apply = append(apply, us(selfTime(s, overlapping(s, fsyncs))))
	}
	out["sessions.apply_us.p50"] = median(apply)
	fs := durs("journal.fsync")
	out["journal.fsyncs"] = float64(len(fs))
	out["journal.fsync_us.p50"] = quantile(fs, 0.50)
	out["journal.fsync_us.p99"] = quantile(fs, 0.99)

	if bc.n > 0 {
		out["handler.req_bytes"] = float64(bc.req) / float64(bc.n)
		out["handler.resp_bytes"] = float64(bc.res) / float64(bc.n)
	} else {
		out["handler.req_bytes"], out["handler.resp_bytes"] = 0, 0
	}
	out["core.compile_us.p50"] = median(core.compileUS)
	out["core.refresh_us.p50"] = median(core.refreshUS)
	out["core.rank_us.p50"] = median(core.rankUS)
	out["core.ns_per_candidate"] = median(core.nsPerCand)
	out["core.allocs_per_rank"] = core.allocsPerRank
	return out
}

// layerUnit derives a per-layer metric's unit from its name.
func layerUnit(name string) string {
	switch {
	case strings.Contains(name, "_us"):
		return "us"
	case strings.Contains(name, "_pct"):
		return "%"
	case strings.Contains(name, "_bytes"):
		return "B"
	case strings.Contains(name, "ns_per"):
		return "ns"
	case strings.Contains(name, "ratio"), strings.Contains(name, "per_"):
		return "1"
	}
	return "count"
}
