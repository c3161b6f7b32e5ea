package main

import (
	"errors"
	"math"
	"sync"
	"sync/atomic"
	"time"
)

// failedLatency is how a failed op enters the latency percentiles: it
// missed every latency limit.
var failedLatency = math.Inf(1)

// job is one scheduled open-loop op: its sequence number, when it was due,
// and when the generator actually queued it.
type job struct {
	i    int
	due  time.Time
	sent time.Time
}

// openLoop issues ops on a fixed schedule of rate per second for d,
// whatever the server's speed: each op is queued at its due time to the
// first free connection, and fn times it from job.sent, so a stall delays
// the ops queued behind it and their wait counts. The generator sleeps
// between ops, and sleeps on small hosts overshoot by up to a millisecond
// (the kernel timer's granularity), so ops are queued in small bursts at
// each wake-up; job.sent is that wake-up, job.due the nominal schedule.
// It returns how late, in µs, the generator queued each op.
func openLoop(conns []*conn, rate float64, d time.Duration, fn func(c *conn, j job)) (late []float64) {
	total := int(rate * d.Seconds())
	// Buffered for the whole schedule: the generator never blocks on a
	// backlog, so the backlog shows up as latency instead of as lateness.
	ch := make(chan job, total)
	var wg sync.WaitGroup
	for _, c := range conns {
		wg.Add(1)
		go func(c *conn) {
			defer wg.Done()
			for j := range ch {
				fn(c, j)
			}
		}(c)
	}
	interval := time.Duration(float64(time.Second) / rate)
	start := time.Now()
	late = make([]float64, 0, total)
	for i := 0; i < total; i++ {
		due := start.Add(time.Duration(i) * interval)
		if wait := time.Until(due); wait > 0 {
			time.Sleep(wait)
		}
		now := time.Now()
		late = append(late, float64(now.Sub(due))/1e3)
		ch <- job{i: i, due: due, sent: now}
	}
	close(ch)
	wg.Wait()
	return late
}

// closedLoop runs fn back to back on every connection until d has passed;
// each call gets the next sequence number. It returns the number of calls.
func closedLoop(conns []*conn, d time.Duration, fn func(c *conn, i int)) int {
	var next atomic.Int64
	var wg sync.WaitGroup
	deadline := time.Now().Add(d)
	for _, c := range conns {
		wg.Add(1)
		go func(c *conn) {
			defer wg.Done()
			for time.Now().Before(deadline) {
				fn(c, int(next.Add(1)-1))
			}
		}(c)
	}
	wg.Wait()
	return int(next.Load())
}

// countLoop runs fn n times spread over the connections (fixed work, for
// set-up and warm-up).
func countLoop(conns []*conn, n int, fn func(c *conn, i int) error) error {
	var next atomic.Int64
	var wg sync.WaitGroup
	errs := make([]error, len(conns))
	for k, c := range conns {
		wg.Add(1)
		go func(k int, c *conn) {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= n {
					return
				}
				if err := fn(c, i); err != nil {
					errs[k] = err
					return
				}
			}
		}(k, c)
	}
	wg.Wait()
	return errors.Join(errs...)
}

// latencies collects per-op latencies (µs) from several goroutines over
// one measured block.
type latencies struct {
	mu         sync.Mutex
	start, end time.Time
	xs         []float64
	// scale converts this block's times to the reference machine's speed
	// (see calibrator.settle); 1 until the run settles.
	scale float64
	// cpuNS is the CPU time the system under test used during the block.
	cpuNS int64
}

func newLatencies() *latencies { return &latencies{start: time.Now(), scale: 1} }

func (l *latencies) add(v float64) {
	l.mu.Lock()
	l.xs = append(l.xs, v)
	l.mu.Unlock()
}

// stop ends the block; its rate is taken from start to here.
func (l *latencies) stop() {
	l.mu.Lock()
	l.end = time.Now()
	l.mu.Unlock()
}

func (l *latencies) n() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return len(l.xs)
}

// phases is a run's samples of one kind, taken in several blocks.
type phases []*latencies

func (ps phases) n() int {
	t := 0
	for _, l := range ps {
		t += l.n()
	}
	return t
}

// q is the q-quantile over every sample.
func (ps phases) q(q float64) float64 {
	var all []float64
	for _, l := range ps {
		l.mu.Lock()
		all = append(all, l.xs...)
		l.mu.Unlock()
	}
	return quantile(all, q)
}

// blockQ is the median, over blocks with at least minN samples, of each
// block's q-quantile (the q-quantile over every sample if no block
// qualifies). With scaled, each block's quantile is first scaled to the
// reference machine's speed (calibrator.settle). A median over blocks
// moves less between runs than one percentile over the whole window,
// since a slow stretch of the host spoils only the blocks it covers.
func (ps phases) blockQ(q float64, minN int, scaled bool) float64 {
	var per []float64
	for _, l := range ps {
		l.mu.Lock()
		if len(l.xs) >= minN {
			v := quantile(append([]float64(nil), l.xs...), q)
			if scaled {
				v *= l.scale
			}
			per = append(per, v)
		}
		l.mu.Unlock()
	}
	if len(per) == 0 {
		return ps.q(q)
	}
	return median(per)
}

// blockRate is the median, over blocks, of each block's successful
// completions per second; with scaled, at the reference machine's speed.
func (ps phases) blockRate(scaled bool) float64 {
	var per []float64
	for _, l := range ps {
		l.mu.Lock()
		if d := l.end.Sub(l.start).Seconds(); d > 0 {
			v := float64(successes(l.xs)) / d
			if scaled {
				v /= l.scale
			}
			per = append(per, v)
		}
		l.mu.Unlock()
	}
	return median(per)
}

// blockCPU is the median, over blocks, of the CPU time the system under
// test used per successful op, in µs at the reference machine's speed.
func (ps phases) blockCPU() float64 {
	var per []float64
	for _, l := range ps {
		l.mu.Lock()
		if n := successes(l.xs); n > 0 {
			per = append(per, float64(l.cpuNS)/1e3/float64(n)*l.scale)
		}
		l.mu.Unlock()
	}
	return median(per)
}

func successes(xs []float64) int {
	n := 0
	for _, x := range xs {
		if !math.IsInf(x, 1) {
			n++
		}
	}
	return n
}

// blocks splits a window of d into n blocks of about each, with a
// calibration after every block; it returns n and the block length.
func blocks(d, each time.Duration) (n int, length time.Duration) {
	n = max(1, int(d/(each+calSpan)))
	return n, max(d/time.Duration(n)-calSpan, 100*time.Millisecond)
}

func sinceUS(t time.Time) float64 { return float64(time.Since(t)) / 1e3 }
