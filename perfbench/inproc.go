package main

import (
	"context"
	"errors"
	"fmt"
	"log"
	"net"
	"net/http"
	"os"
	"runtime"
	"sync"
	"time"

	contextrank "repro"
	"repro/internal/serve"
	"repro/internal/serve/journal"
	"repro/internal/serve/metrics"
	"repro/internal/serve/shard"
)

// inproc is the daemon's stack built in this process from the exported
// constructors, the way cmd/carserved wires it (one shard, paper preload,
// journal in a fresh directory, metrics on). When tr is non-nil the
// benchmark's decorators time the layer boundaries: a handler wrapper
// outside serve.NewHandlerWith, a serve.Backend decorator between the
// handler and the coordinator, and a journal.FS that times fsyncs.
type inproc struct {
	coord     *shard.Coordinator
	srv       *http.Server
	base      string
	dir       string
	served    chan error
	stopCkpt  func()
	stopProbe func()
	bytes     *byteCounts
}

func startInproc(workdir string, rules int, tr *tracer) (*inproc, error) {
	dir, err := os.MkdirTemp(workdir, "inproc-")
	if err != nil {
		return nil, err
	}
	p := &inproc{dir: dir, bytes: &byteCounts{}}
	build := func(int) (*contextrank.System, error) { return paperSystem(rules) }
	p.coord, err = shard.New(1, build, serve.Options{CacheSize: serve.DefaultCacheSize, DegradeOnDiskError: true})
	if err != nil {
		return nil, err
	}
	jopts := journal.Options{}
	if tr != nil {
		jopts.FS = timingFS{inner: journal.OSFS{}, tr: tr}
	}
	if _, err := p.coord.Recover(dir, jopts); err != nil {
		return nil, fmt.Errorf("arming journal: %w", err)
	}
	if err := p.coord.Checkpoint(dir); err != nil {
		return nil, fmt.Errorf("boot checkpoint: %w", err)
	}
	p.stopCkpt = p.coord.StartCheckpointer(dir, shard.CheckpointerOptions{Interval: 5 * time.Minute, Bytes: 64 << 20})
	p.stopProbe = p.coord.StartHealthProbe(time.Second, func(line string) { log.Print(line) })

	var backend serve.Backend = p.coord
	if tr != nil {
		backend = &tracedBackend{Backend: p.coord, tr: tr}
	}
	var h http.Handler = serve.NewHandlerWith(backend, serve.HandlerOptions{
		Drain:          &serve.DrainGate{},
		RequestTimeout: 30 * time.Second,
		Metrics:        metrics.NewRegistry(),
	})
	if tr != nil {
		h = traceHandler(h, tr, p.bytes)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	p.base = "http://" + ln.Addr().String()
	p.srv = &http.Server{Handler: h, ReadHeaderTimeout: 5 * time.Second, IdleTimeout: 120 * time.Second}
	p.served = make(chan error, 1)
	go func() { p.served <- p.srv.Serve(ln) }()
	return p, nil
}

func (p *inproc) stop() error {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	err := p.srv.Shutdown(ctx)
	if serr := <-p.served; !errors.Is(serr, http.ErrServerClosed) && err == nil {
		err = serr
	}
	p.stopProbe()
	p.stopCkpt()
	if cerr := p.coord.CloseJournals(); err == nil {
		err = cerr
	}
	os.RemoveAll(p.dir)
	return err
}

// tracedBackend times the handler's calls into the serving backend.
type tracedBackend struct {
	serve.Backend
	tr *tracer
}

func (b *tracedBackend) Rank(user, target string, opts contextrank.RankOptions) ([]contextrank.Result, serve.RankMeta, error) {
	start := b.tr.now()
	res, meta, err := b.Backend.Rank(user, target, opts)
	name := "backend.rank.miss"
	if meta.Cached {
		name = "backend.rank.hit"
	}
	b.tr.add(span{name: name, start: start, end: b.tr.now(), user: user})
	return res, meta, err
}

func (b *tracedBackend) RankBatch(user string, alg contextrank.Algorithm, items []serve.RankItem) ([]serve.RankItemResult, serve.RankMeta, error) {
	start := b.tr.now()
	res, meta, err := b.Backend.RankBatch(user, alg, items)
	b.tr.add(span{name: "backend.rank_batch", start: start, end: b.tr.now(), user: user})
	return res, meta, err
}

func (b *tracedBackend) SetSession(user string, ms []serve.Measurement) (string, error) {
	start := b.tr.now()
	fp, err := b.Backend.SetSession(user, ms)
	b.tr.add(span{name: "backend.set_session", start: start, end: b.tr.now(), user: user})
	return fp, err
}

// byteCounts sums request and response body bytes of the traced routes.
type byteCounts struct {
	mu       sync.Mutex
	n        int64
	req, res int64
}

func (bc *byteCounts) reset() {
	bc.mu.Lock()
	bc.n, bc.req, bc.res = 0, 0, 0
	bc.mu.Unlock()
}

// traceHandler records a handler span around every traced route.
func traceHandler(next http.Handler, tr *tracer, bc *byteCounts) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		route := routeOf(r.Method, r.URL.Path)
		if route == "" {
			next.ServeHTTP(w, r)
			return
		}
		start := tr.now()
		cw := &countingWriter{ResponseWriter: w}
		next.ServeHTTP(cw, r)
		tr.add(span{name: "handler." + route, start: start, end: tr.now(),
			req: r.Header.Get("X-Request-ID"), user: r.Header.Get(userHeader), conn: r.RemoteAddr})
		bc.mu.Lock()
		bc.n++
		bc.req += r.ContentLength
		bc.res += cw.n
		bc.mu.Unlock()
	})
}

type countingWriter struct {
	http.ResponseWriter
	n int64
}

func (w *countingWriter) Write(b []byte) (int, error) {
	n, err := w.ResponseWriter.Write(b)
	w.n += int64(n)
	return n, err
}

// Unwrap lets http.ResponseController reach the connection's deadlines.
func (w *countingWriter) Unwrap() http.ResponseWriter { return w.ResponseWriter }

// timingFS times every file fsync the journal issues.
type timingFS struct {
	inner journal.FS
	tr    *tracer
}

func (f timingFS) OpenFile(name string, flag int, perm os.FileMode) (journal.File, error) {
	file, err := f.inner.OpenFile(name, flag, perm)
	if err != nil {
		return nil, err
	}
	return timingFile{File: file, tr: f.tr}, nil
}

func (f timingFS) Rename(oldpath, newpath string) error { return f.inner.Rename(oldpath, newpath) }
func (f timingFS) Remove(name string) error             { return f.inner.Remove(name) }
func (f timingFS) SyncDir(dir string) error             { return f.inner.SyncDir(dir) }

type timingFile struct {
	journal.File
	tr *tracer
}

func (f timingFile) Sync() error {
	start := f.tr.now()
	err := f.File.Sync()
	f.tr.add(span{name: "journal.fsync", start: start, end: f.tr.now()})
	return err
}

// coreStats is the quiet-phase replay of sampled requests straight
// through the core plan API.
type coreStats struct {
	compileUS, refreshUS, rankUS []float64
	nsPerCand                    []float64
	allocsPerRank                float64
}

// replayCore re-runs sampled requests under the facade read lock, with no
// traffic, through CompileRankPlan, RefreshRankPlan, RankWithPlan and
// RankCandidatesWithPlan on the stack's own System.
func (p *inproc) replayCore(ops []rankOp) (coreStats, error) {
	var cs coreStats
	const reps = 20
	err := p.coord.Shard(0).Facade().WithRead(func(sys *contextrank.System) error {
		plans := map[string]*contextrank.RankPlan{}
		for _, op := range ops {
			if plans[op.user] != nil {
				continue
			}
			t := time.Now()
			plan, err := sys.CompileRankPlan(op.user)
			if err != nil {
				return fmt.Errorf("compiling plan for %s: %w", op.user, err)
			}
			cs.compileUS = append(cs.compileUS, sinceUS(t))
			t = time.Now()
			if _, err := sys.RefreshRankPlan(plan); err == nil {
				cs.refreshUS = append(cs.refreshUS, sinceUS(t))
			}
			plans[op.user] = plan
		}
		rank := func(op rankOp, topK int) ([]contextrank.Result, error) {
			opts := contextrank.RankOptions{TopK: topK}
			if op.cands != nil {
				return sys.RankCandidatesWithPlan(plans[op.user], op.cands, opts)
			}
			return sys.RankWithPlan(plans[op.user], op.target, opts)
		}
		var calls, mallocs uint64
		var ms0, ms1 runtime.MemStats
		for _, op := range ops {
			if _, err := rank(op, op.topK); err != nil { // warm the scratch pools
				return err
			}
			runtime.ReadMemStats(&ms0)
			t := time.Now()
			for k := 0; k < reps; k++ {
				if _, err := rank(op, op.topK); err != nil {
					return err
				}
			}
			perCall := float64(time.Since(t)) / reps
			runtime.ReadMemStats(&ms1)
			calls += reps
			mallocs += ms1.Mallocs - ms0.Mallocs
			cs.rankUS = append(cs.rankUS, perCall/1e3)
			full, err := rank(op, 0)
			if err != nil {
				return err
			}
			if len(full) > 0 {
				cs.nsPerCand = append(cs.nsPerCand, perCall/float64(len(full)))
			}
		}
		cs.allocsPerRank = float64(mallocs) / float64(calls)
		return nil
	})
	return cs, err
}
