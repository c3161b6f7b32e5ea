package main

import (
	"encoding/json"
	"fmt"
	"net/http"
	"sync"
	"time"
)

// Workload shapes. The open-loop rates are fixed, so a slower commit shows
// as queueing delay rather than as a lower rate; README.md says why they
// sit well below what the seed commit sustains.
const (
	zipfRules   = 4
	zipfUsers   = 512
	zipfWarmup  = 4000
	zipfRate    = 1000 // paced ranks per second
	queryRules  = 8
	queryUsers  = 64
	queryWarmup = 512
	churnRules  = 4
	churnUsers  = 256
	churnSubs   = 32
	churnWarmup = 32
	churnRate   = 20 // paced sensor events per second
	zipfBlock   = time.Second
	queryBlock  = time.Second
	churnBlock  = 2 * time.Second
	// churnSatEvents is one saturating block's events: about churnBlock's
	// worth at the seed commit's speed on the reference machine.
	churnSatEvents = 160
	connsPerLoad   = 2 // nproc of the reference machine
)

// metric is one reported number with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// runResult is what one measured window produced.
type runResult struct {
	named     map[string]metric // the workload's own end-to-end metrics
	lat       phases            // the primary op's latency blocks
	latMinN   int               // fewest samples a latency block needs
	ops       phases            // the blocks its throughput comes from
	attempted int
	failed    int
	measured  int       // ops in the window (for per-op ratios)
	applies   int       // context applies in the window
	late      []float64 // open-loop generator lateness, µs
	replay    []rankOp  // sampled requests the core replay re-runs
}

// traffic is one workload against a server at base. A fresh value
// serves each server instance: setup creates its state over HTTP, run
// measures a window, check verifies sampled outputs against a reference
// system afterwards.
type traffic interface {
	rules() int
	setup(base string, tr *tracer) error
	run(d time.Duration, cal *calibrator) (*runResult, error)
	check(ref *reference, r *runResult) error
	close()
}

// newWorkload generates the named workload's inputs from seed.
func newWorkload(name string, seed int64) (traffic, error) {
	switch name {
	case "rank_zipf":
		w := &zipfWorkload{}
		w.users, w.ctxs, w.ops = zipfInputs(seed, zipfUsers, 1<<17)
		return w, nil
	case "rank_query":
		w := &queryWorkload{}
		w.users, w.ctxs, w.ops = queryInputs(seed, queryUsers, 4096)
		return w, nil
	case "context_churn":
		return &churnWorkload{in: newChurnInputs(seed, churnUsers, churnSubs)}, nil
	}
	return nil, fmt.Errorf("unknown workload %q (want rank_zipf, rank_query or context_churn)", name)
}

func openConns(base string, tr *tracer, n int) []*conn {
	cs := make([]*conn, n)
	for i := range cs {
		cs[i] = newConn(base, tr)
	}
	return cs
}

func closeConns(cs []*conn) {
	for _, c := range cs {
		c.close()
	}
}

// putSessions creates every user's session context over HTTP.
func putSessions(conns []*conn, users []string, ctxs map[string][]measurement) error {
	return countLoop(conns, len(users), func(c *conn, i int) error {
		return c.call(http.MethodPut, "/v1/sessions/"+users[i]+"/context", users[i], sessionBody(ctxs[users[i]]), nil)
	})
}

// checked is one sampled response kept for the reference re-rank.
type checked struct {
	op   rankOp
	resp []byte
}

// sampler keeps up to maxChecks sampled responses.
type sampler struct {
	mu   sync.Mutex
	kept []checked
}

func (s *sampler) keep(op rankOp, resp []byte) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if len(s.kept) < maxChecks {
		s.kept = append(s.kept, checked{op, append([]byte(nil), resp...)})
	}
}

// rankOnce issues one pre-generated rank op, returning whether it
// succeeded; sampled responses are kept for the reference check.
func rankOnce(c *conn, op rankOp, path string, s *sampler) bool {
	status, resp, err := c.do(http.MethodPost, path, op.user, op.body)
	if err != nil || status != http.StatusOK {
		return false
	}
	if op.check {
		s.keep(op, resp)
	}
	return true
}

// checkSamples re-ranks every kept response in the reference system.
func checkSamples(ref *reference, ctxs map[string][]measurement, s *sampler, r *runResult) error {
	for _, k := range s.kept {
		var got []result
		if k.op.cands == nil {
			var resp rankResponse
			if err := json.Unmarshal(k.resp, &resp); err != nil {
				return fmt.Errorf("decoding sampled rank response: %w", err)
			}
			got = resp.Results
		} else {
			var resp batchResponse
			if err := json.Unmarshal(k.resp, &resp); err != nil {
				return fmt.Errorf("decoding sampled batch response: %w", err)
			}
			if len(resp.Items) != 1 || resp.Items[0].Error != "" {
				r.attempted++
				r.failed++
				continue
			}
			got = resp.Items[0].Results
		}
		want, err := ref.rank(k.op.user, ctxs[k.op.user], k.op.target, k.op.cands, k.op.topK)
		if err != nil {
			return err
		}
		r.attempted++
		if !sameRanking(got, want) {
			r.failed++
			fmt.Printf("check: MISMATCH user=%s target=%q candidates=%d top_k=%d\n", k.op.user, k.op.target, len(k.op.cands), k.op.topK)
		}
	}
	fmt.Printf("check: %d sampled responses re-ranked in the reference system\n", len(s.kept))
	return nil
}

// --- rank_zipf --------------------------------------------------------------

type zipfWorkload struct {
	users   []string
	ctxs    map[string][]measurement
	ops     []rankOp
	conns   []*conn
	samples sampler
}

func (w *zipfWorkload) rules() int { return zipfRules }

func (w *zipfWorkload) setup(base string, tr *tracer) error {
	w.conns = openConns(base, tr, connsPerLoad)
	if err := putSessions(w.conns, w.users, w.ctxs); err != nil {
		return err
	}
	return countLoop(w.conns, zipfWarmup, func(c *conn, i int) error {
		return c.call(http.MethodPost, "/v1/rank", w.ops[i].user, w.ops[i].body, nil)
	})
}

func (w *zipfWorkload) op(i int) rankOp { return w.ops[(zipfWarmup+i)%len(w.ops)] }

func (w *zipfWorkload) run(d time.Duration, cal *calibrator) (*runResult, error) {
	r := &runResult{}
	var paced, fromDue, sat phases
	var mu sync.Mutex
	count := func(ok bool) {
		mu.Lock()
		r.attempted++
		if !ok {
			r.failed++
		}
		mu.Unlock()
	}
	n, each := blocks(d, zipfBlock)
	next := 0 // position in the op sequence
	for k := 0; k < max(2, n); k++ {
		if k%2 == 0 {
			// Paced block: independent users arriving at a fixed rate.
			cal.block(func() []*latencies {
				p, due := newLatencies(), newLatencies()
				late := openLoop(w.conns, zipfRate, each, func(c *conn, j job) {
					ok := rankOnce(c, w.op(next+j.i), "/v1/rank", &w.samples)
					if ok {
						p.add(sinceUS(j.sent))
						due.add(sinceUS(j.due))
					} else {
						p.add(failedLatency)
						due.add(failedLatency)
					}
					count(ok)
				})
				p.stop()
				due.stop()
				paced, fromDue = append(paced, p), append(fromDue, due)
				r.late = append(r.late, late...)
				next += len(late)
				return []*latencies{p, due}
			})
			continue
		}
		// Saturating block: both connections back to back.
		cal.block(func() []*latencies {
			s := newLatencies()
			n := closedLoop(w.conns, each, func(c *conn, i int) {
				start := time.Now()
				ok := rankOnce(c, w.op(next+i), "/v1/rank", &w.samples)
				s.add(okLatency(ok, start))
				count(ok)
			})
			s.stop()
			next += n
			sat = append(sat, s)
			return []*latencies{s}
		})
	}
	r.measured = r.attempted
	for i := 0; i < 64; i++ {
		r.replay = append(r.replay, w.op(i*97))
	}
	cal.settle()
	r.lat, r.latMinN, r.ops = paced, 100, sat
	r.named = map[string]metric{
		"rank_p50_us": {paced.blockQ(0.50, 100, true), "us"},
		"rank_p99_us": {paced.blockQ(0.99, 100, true), "us"},
		"rank_rps":    {sat.blockRate(true), "1/s"},
		// The paced latencies timed from the nominal schedule, generator
		// oversleep included.
		"rank_p50_from_due_us": {fromDue.blockQ(0.50, 100, true), "us"},
	}
	return r, nil
}

// p50 is the primary op's median latency at the reference machine's
// speed: the median over blocks of each block's scaled p50.
func (r *runResult) p50() float64 { return r.lat.blockQ(0.50, r.latMinN, true) }

// opsPerSec is the completed ops per second at the reference machine's
// speed: the median over blocks of each block's scaled rate.
func (r *runResult) opsPerSec() float64 { return r.ops.blockRate(true) }

// okLatency is the latency of an op started at start, or failedLatency.
func okLatency(ok bool, start time.Time) float64 {
	if !ok {
		return failedLatency
	}
	return sinceUS(start)
}

func (w *zipfWorkload) check(ref *reference, r *runResult) error {
	return checkSamples(ref, w.ctxs, &w.samples, r)
}

func (w *zipfWorkload) close() { closeConns(w.conns) }

// --- rank_query -------------------------------------------------------------

type queryWorkload struct {
	users   []string
	ctxs    map[string][]measurement
	ops     []rankOp
	conns   []*conn
	samples sampler
}

func (w *queryWorkload) rules() int { return queryRules }

func (w *queryWorkload) setup(base string, tr *tracer) error {
	w.conns = openConns(base, tr, connsPerLoad)
	if err := putSessions(w.conns, w.users, w.ctxs); err != nil {
		return err
	}
	return countLoop(w.conns, queryWarmup, func(c *conn, i int) error {
		op := w.ops[i%len(w.ops)]
		return c.call(http.MethodPost, "/v1/rank/batch", op.user, op.body, nil)
	})
}

func (w *queryWorkload) op(i int) rankOp { return w.ops[(queryWarmup+i)%len(w.ops)] }

func (w *queryWorkload) run(d time.Duration, cal *calibrator) (*runResult, error) {
	r := &runResult{}
	var all phases
	var mu sync.Mutex
	n, each := blocks(d, queryBlock)
	for k := 0; k < n; k++ {
		cal.block(func() []*latencies {
			l := newLatencies()
			first := r.measured
			r.measured += closedLoop(w.conns, each, func(c *conn, i int) {
				start := time.Now()
				ok := rankOnce(c, w.op(first+i), "/v1/rank/batch", &w.samples)
				l.add(okLatency(ok, start))
				mu.Lock()
				r.attempted++
				if !ok {
					r.failed++
				}
				mu.Unlock()
			})
			l.stop()
			all = append(all, l)
			return []*latencies{l}
		})
	}
	for i := 0; i < 32; i++ {
		r.replay = append(r.replay, w.op(i*31))
	}
	cal.settle()
	r.lat, r.latMinN, r.ops = all, 100, all
	r.named = map[string]metric{
		"query_p50_us": {all.blockQ(0.50, 100, true), "us"},
		"query_p99_us": {all.blockQ(0.99, 100, true), "us"},
		"query_rps":    {all.blockRate(true), "1/s"},
	}
	return r, nil
}

func (w *queryWorkload) check(ref *reference, r *runResult) error {
	return checkSamples(ref, w.ctxs, &w.samples, r)
}

func (w *queryWorkload) close() { closeConns(w.conns) }

// --- context_churn ----------------------------------------------------------

// streamedPut records one apply to the streamed user.
type streamedPut struct {
	sent   time.Time // when the PUT left the client
	due    time.Time // when the generator queued it (paced blocks), else == sent
	ctxIdx int
	paced  bool
}

type churnWorkload struct {
	in    *churnInputs
	conns []*conn // conns[0] drives the sensor events
	sse   *sseReader

	mu   sync.Mutex
	puts []streamedPut
	// fresh is a full ranking of the streamed user taken after the window,
	// which the folded stream must equal.
	fresh []result
}

func (w *churnWorkload) rules() int { return churnRules }

func (w *churnWorkload) setup(base string, tr *tracer) error {
	w.conns = openConns(base, tr, connsPerLoad)
	if err := putSessions(w.conns, w.in.users, w.in.ctxs); err != nil {
		return err
	}
	var streamID string
	for i, u := range w.in.subUsers {
		var info struct {
			ID string `json:"id"`
		}
		body := mustJSON(struct {
			User   string `json:"user"`
			Target string `json:"target"`
		}{u, "TvProgram"})
		if err := w.conns[0].call(http.MethodPost, "/v1/subscriptions", u, body, &info); err != nil {
			return err
		}
		if i == 0 {
			streamID = info.ID
		}
	}
	// The second connection carries the streamed subscription; the sensor
	// events use the first alone.
	w.conns[1].close()
	w.conns = w.conns[:1]
	sse, err := openSSE(base, streamID)
	if err != nil {
		return err
	}
	w.sse = sse
	for i := 0; i < churnWarmup; i++ {
		ev := w.in.next()
		w.notePut(ev, time.Now(), time.Now(), false)
		if err := w.conns[0].call(http.MethodPut, "/v1/sessions/"+ev.user+"/context", ev.user, ev.putBody, nil); err != nil {
			return err
		}
		if err := w.conns[0].call(http.MethodPost, "/v1/rank", ev.user, ev.rankBody, nil); err != nil {
			return err
		}
	}
	return nil
}

func (w *churnWorkload) notePut(ev churnEvent, sent, due time.Time, paced bool) {
	if !ev.streamed {
		return
	}
	w.mu.Lock()
	w.puts = append(w.puts, streamedPut{sent: sent, due: due, ctxIdx: ev.ctxIdx, paced: paced})
	w.mu.Unlock()
}

// event applies one sensor update and re-ranks its user, returning the
// apply latency from due (µs), the follow-up rank latency (µs), and
// whether both succeeded.
func (w *churnWorkload) event(c *conn, due time.Time, paced bool) (apply, rank float64, ok bool) {
	ev := w.in.next()
	sent := time.Now()
	if !paced {
		due = sent
	}
	w.notePut(ev, sent, due, paced)
	status, _, err := c.do(http.MethodPut, "/v1/sessions/"+ev.user+"/context", ev.user, ev.putBody)
	if err != nil || status != http.StatusOK {
		return failedLatency, failedLatency, false
	}
	apply = sinceUS(due)
	start := time.Now()
	status, _, err = c.do(http.MethodPost, "/v1/rank", ev.user, ev.rankBody)
	if err != nil || status != http.StatusOK {
		return apply, failedLatency, false
	}
	return apply, sinceUS(start), true
}

func (w *churnWorkload) run(d time.Duration, cal *calibrator) (*runResult, error) {
	r := &runResult{}
	var applies, ranks, sat phases
	n, each := blocks(d, churnBlock)
	for k := 0; k < max(2, n); k++ {
		if k%2 == 0 {
			// Paced block: sensor events on a fixed schedule.
			cal.block(func() []*latencies {
				a, rk := newLatencies(), newLatencies()
				late := openLoop(w.conns, churnRate, each, func(c *conn, j job) {
					apply, rank, ok := w.event(c, j.sent, true)
					a.add(apply)
					rk.add(rank)
					r.attempted++
					if !ok {
						r.failed++
					}
				})
				a.stop()
				rk.stop()
				applies, ranks = append(applies, a), append(ranks, rk)
				r.late = append(r.late, late...)
				return []*latencies{a, rk}
			})
			continue
		}
		// Saturating block: a fixed number of sensor events back to back
		// on the one connection. The daemon's memory grows with every
		// apply, so a fixed count keeps peak_rss_mb from following the
		// host's speed; the time cap bounds the run on a slow host.
		cal.block(func() []*latencies {
			s := newLatencies()
			deadline := time.Now().Add(3 * each)
			for i := 0; i < churnSatEvents && time.Now().Before(deadline); i++ {
				start := time.Now()
				_, _, ok := w.event(w.conns[0], time.Time{}, false)
				s.add(okLatency(ok, start))
				r.attempted++
				if !ok {
					r.failed++
				}
			}
			s.stop()
			sat = append(sat, s)
			return []*latencies{s}
		})
	}
	r.measured = r.attempted
	r.applies = r.attempted
	cal.settle()
	r.lat, r.latMinN, r.ops = applies, 20, sat

	// Let the evaluator drain: wait for 500ms without a new stream event
	// (at most 5s), then take the reference ranking the stream must fold to.
	for waited := time.Duration(0); waited < 5*time.Second && time.Since(w.sse.lastAt()) < 500*time.Millisecond; waited += 50 * time.Millisecond {
		time.Sleep(50 * time.Millisecond)
	}
	var fresh rankResponse
	body := mustJSON(struct {
		User   string `json:"user"`
		Target string `json:"target"`
	}{w.in.subUsers[0], "TvProgram"})
	if err := w.conns[0].call(http.MethodPost, "/v1/rank", w.in.subUsers[0], body, &fresh); err != nil {
		return nil, err
	}
	w.fresh = fresh.Results
	for i := 0; i < 16; i++ {
		ev := w.in.users[(i*37)%len(w.in.users)]
		r.replay = append(r.replay, rankOp{user: ev, target: "TvProgram", topK: 10})
	}
	r.named = map[string]metric{
		"apply_p50_us":      {applies.blockQ(0.50, 20, true), "us"},
		"apply_p90_us":      {applies.blockQ(0.90, 20, true), "us"},
		"apply_p99_us":      {applies.q(0.99), "us"},
		"churn_rank_p50_us": {ranks.blockQ(0.50, 20, true), "us"},
		"apply_rps":         {sat.blockRate(true), "1/s"},
	}
	return r, nil
}

// check folds the streamed subscription's snapshot and deltas, matches
// each streamed apply to the first delta that shows its context (the
// evaluator may coalesce applies that land close together), derives the
// push lags, and verifies the folded state equals a fresh rank.
func (w *churnWorkload) check(ref *reference, r *runResult) error {
	expected := make([]map[string]float64, streamedCycle)
	for i, ctx := range w.in.streamedCtxs {
		res, err := ref.rank(w.in.subUsers[0], ctx, "TvProgram", nil, 0)
		if err != nil {
			return err
		}
		expected[i] = resultMap(res)
		for j := 0; j < i; j++ {
			if sameMap(expected[i], expected[j]) {
				return fmt.Errorf("streamed contexts %d and %d rank identically; deltas would be ambiguous", i, j)
			}
		}
	}
	events := w.sse.snapshot()
	w.mu.Lock()
	puts := append([]streamedPut(nil), w.puts...)
	w.mu.Unlock()

	state := map[string]float64{}
	var lags []float64
	next := 0 // first undelivered streamed put
	streamErrs := 0
	for _, ev := range events {
		switch ev.Type {
		case "snapshot", "resync":
			state = resultMap(ev.Results)
		case "delta":
			for _, c := range ev.Changes {
				state[c.ID] = c.Score
			}
			for _, id := range ev.Removed {
				delete(state, id)
			}
		case "error":
			streamErrs++
			continue
		default:
			continue
		}
		for k := next; k < len(puts) && !puts[k].sent.After(ev.at); k++ {
			if !sameMap(state, expected[puts[k].ctxIdx]) {
				continue
			}
			for ; next <= k; next++ {
				if puts[next].paced {
					lags = append(lags, float64(ev.at.Sub(puts[next].due))/1e3)
				}
			}
			break
		}
	}
	missing := len(puts) - next
	foldOK := sameMap(state, resultMap(w.fresh))
	fmt.Printf("check: streamed subscription: %d events, %d streamed applies, %d without a delta, fold==fresh rank: %v\n",
		len(events), len(puts), missing, foldOK)
	r.attempted++
	if !foldOK {
		r.failed++
	}
	r.failed += missing + streamErrs
	if err := w.sse.close(); err != nil {
		return fmt.Errorf("subscription stream: %w", err)
	}
	w.sse = nil
	lp50, lp95 := quantile(lags, 0.50), quantile(lags, 0.95)
	r.named["push_lag_p50_us"] = metric{lp50, "us"}
	r.named["push_lag_p95_us"] = metric{lp95, "us"}
	fmt.Printf("check: %d paced push lags measured\n", len(lags))
	return nil
}

func (w *churnWorkload) close() {
	if w.sse != nil {
		_ = w.sse.close() // an aborted run's stream; its error is moot
	}
	closeConns(w.conns)
}

func resultMap(rs []result) map[string]float64 {
	m := make(map[string]float64, len(rs))
	for _, r := range rs {
		m[r.ID] = r.Score
	}
	return m
}

func sameMap(a, b map[string]float64) bool {
	if len(a) != len(b) {
		return false
	}
	for k, v := range a {
		if w, ok := b[k]; !ok || w != v {
			return false
		}
	}
	return true
}

func sameRanking(a, b []result) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
