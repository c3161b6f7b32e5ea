package main

import (
	"encoding/json"
	"fmt"
	"io"
	"net"
	"runtime"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
)

// The host is a VM on shared hardware whose speed drifts: a fixed
// CPU-bound loop takes from one half second to the next up to twice as
// long, in CPU time as well as wall time, so neither hypervisor steal nor
// CPU-time accounting explains it away. The benchmark therefore measures
// the host's current speed with a fixed piece of reference work, run
// between the measured blocks, and scales every time it reports to what
// it would have been on a host where one reference unit costs refUnitNS.
const (
	// refUnitNS is the CPU time one reference unit took on the reference
	// machine (README.md).
	refUnitNS = 75000.0
	// calSpan is how long one calibration runs.
	calSpan = 200 * time.Millisecond
	// calWorkers matches the load generator's connections, so the
	// calibration loads the same number of CPUs as the workloads do.
	calWorkers = connsPerLoad
	// calWindow is how many calibrations around a block set its scale.
	calWindow = 6
)

// calItem is the shape of one ranked result on the wire.
type calItem struct {
	ID    string  `json:"id"`
	Score float64 `json:"score"`
}

// calBlock is one measured block and the calibration just before it.
type calBlock struct {
	l  *latencies
	at int
}

// calibrator runs the reference work: per unit, a JSON round trip of a
// ranked list, a sort, map lookups, and one small loopback TCP round
// trip, the mix of work a rank request costs the client and the daemon.
type calibrator struct {
	ln    net.Listener
	links []net.Conn // one client end per worker; the echo ends run below
	keys  []string
	table map[string]int
	wg    sync.WaitGroup

	mu     sync.Mutex
	all    []float64  // every calibration of the run
	err    error      // the first failed calibration
	blocks []calBlock // measured blocks awaiting settle
	// idle, when set, waits until the system under test has no work
	// left in the background; cpu, when set, reads the CPU time it has
	// used, in ns.
	idle func()
	cpu  func() int64
	// mallocs counts the heap allocations calibrations made, which a
	// traced run takes out of its allocation counts.
	mallocs uint64
}

func newCalibrator() (*calibrator, error) {
	c := &calibrator{table: make(map[string]int, 1<<15)}
	for i := 0; i < 1<<15; i++ {
		k := "p" + strconv.Itoa(i*7919)
		c.keys = append(c.keys, k)
		c.table[k] = i
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	c.ln = ln
	c.wg.Add(1)
	go func() {
		defer c.wg.Done()
		for {
			s, err := ln.Accept()
			if err != nil {
				return
			}
			c.wg.Add(1)
			go func() {
				defer c.wg.Done()
				_, _ = io.Copy(s, s)
				s.Close()
			}()
		}
	}()
	for i := 0; i < calWorkers; i++ {
		l, err := net.Dial("tcp", ln.Addr().String())
		if err != nil {
			c.close()
			return nil, err
		}
		c.links = append(c.links, l)
	}
	c.measure()
	return c, nil
}

// close stops the echo server and waits for its goroutines.
func (c *calibrator) close() {
	c.ln.Close()
	for _, l := range c.links {
		l.Close()
	}
	c.wg.Wait()
}

// unit is one reference unit of work on worker w.
func (c *calibrator) unit(w, seq int, buf []byte) error {
	items := make([]calItem, 24)
	for i := range items {
		k := c.keys[(seq*131+i*977+w)%len(c.keys)]
		items[i] = calItem{ID: k, Score: float64(c.table[k]%97) / 97}
	}
	b, err := json.Marshal(items)
	if err != nil {
		return err
	}
	var back []calItem
	if err := json.Unmarshal(b, &back); err != nil {
		return err
	}
	sort.Slice(back, func(i, j int) bool {
		if back[i].Score != back[j].Score {
			return back[i].Score > back[j].Score
		}
		return back[i].ID < back[j].ID
	})
	sum := 0
	for i := 0; i < 256; i++ {
		sum += c.table[c.keys[(seq*7+i*4099)%len(c.keys)]]
	}
	buf[0] = byte(sum)
	if _, err := c.links[w].Write(buf); err != nil {
		return err
	}
	_, err = io.ReadFull(c.links[w], buf)
	return err
}

// measure runs the reference work on calWorkers goroutines for calSpan
// and returns this process's CPU time per unit, in ns. CPU time rather
// than wall time: a calibration must not read as slow because another
// thread (a kernel worker, say) took its CPU for a moment, while a host
// whose cores run slower makes every unit cost more CPU time.
func (c *calibrator) measure() float64 {
	var units atomic.Int64
	var failed atomic.Bool
	var wg sync.WaitGroup
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	cpu0 := processCPU()
	start := time.Now()
	for w := 0; w < calWorkers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			buf := make([]byte, 512)
			for seq := 0; time.Since(start) < calSpan; seq++ {
				if err := c.unit(w, seq, buf); err != nil {
					failed.Store(true)
					return
				}
				units.Add(1)
			}
		}(w)
	}
	wg.Wait()
	ns := float64(processCPU()-cpu0) / float64(max(1, units.Load()))
	runtime.ReadMemStats(&m1)
	c.mu.Lock()
	defer c.mu.Unlock()
	if failed.Load() && c.err == nil {
		c.err = fmt.Errorf("calibration failed after %d units", units.Load())
	}
	c.all = append(c.all, ns)
	c.mallocs += m1.Mallocs - m0.Mallocs
	return ns
}

// processCPU is the CPU time this process has used, user and system, in ns.
func processCPU() int64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return syscall.TimevalToNsec(ru.Utime) + syscall.TimevalToNsec(ru.Stime)
}

// block runs one measured block after the latest calibration and before
// a new one, and remembers the latencies the block returns; settle gives
// them their scale once the run's calibrations are all in. The block's
// CPU time is read once the system under test is idle again, so the
// background work its requests caused counts in it, and the calibration
// that follows measures the host alone.
func (c *calibrator) block(run func() []*latencies) {
	c.mu.Lock()
	at := len(c.all) - 1
	c.mu.Unlock()
	var cpu0 int64
	if c.cpu != nil {
		cpu0 = c.cpu()
	}
	ls := run()
	if c.idle != nil {
		c.idle()
	}
	var cpuNS int64
	if c.cpu != nil {
		cpuNS = c.cpu() - cpu0
	}
	c.measure()
	c.mu.Lock()
	for _, l := range ls {
		l.cpuNS = cpuNS
		c.blocks = append(c.blocks, calBlock{l, at})
	}
	c.mu.Unlock()
}

// settle scales every block to the reference machine's speed: refUnitNS
// over the median of the calWindow calibrations nearest the block. One
// calibration is as noisy as the host, so a block is not scaled by its
// neighbours alone; the window still follows the host's drift over a run.
func (c *calibrator) settle() {
	c.mu.Lock()
	defer c.mu.Unlock()
	n := len(c.all)
	for _, b := range c.blocks {
		lo := max(0, min(b.at-calWindow/2+1, n-calWindow))
		hi := min(n, lo+calWindow)
		b.l.scale = refUnitNS / median(append([]float64(nil), c.all[lo:hi]...))
	}
}
