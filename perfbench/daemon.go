package main

import (
	"bufio"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// daemon is one carserved child process on a loopback port.
type daemon struct {
	cmd    *exec.Cmd
	base   string
	dir    string
	exited chan error

	stopOnce sync.Once
	stopErr  error
}

// freePort asks the kernel for an unused loopback port.
func freePort() (int, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	defer l.Close()
	return l.Addr().(*net.TCPAddr).Port, nil
}

// startDaemon launches carserved with the paper preload, the given rule
// count, one shard, metrics on and a fresh journal directory under
// workdir, and waits until it answers /healthz.
func startDaemon(bin, workdir string, rules int) (*daemon, error) {
	dir, err := os.MkdirTemp(workdir, "snap-")
	if err != nil {
		return nil, err
	}
	port, err := freePort()
	if err != nil {
		return nil, err
	}
	addr := "127.0.0.1:" + strconv.Itoa(port)
	logf, err := os.Create(filepath.Join(dir, "carserved.log"))
	if err != nil {
		return nil, err
	}
	defer logf.Close()
	cmd := exec.Command(bin, "-addr", addr, "-shards", "1", "-preload", "paper",
		"-rules", strconv.Itoa(rules), "-snapdir", filepath.Join(dir, "wal"), "-metrics")
	cmd.Stdout, cmd.Stderr = logf, logf
	// The daemon dies with the benchmark even if the benchmark is killed.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("starting %s: %w", bin, err)
	}
	d := &daemon{cmd: cmd, base: "http://" + addr, dir: dir, exited: make(chan error, 1)}
	go func() { d.exited <- cmd.Wait() }()

	hc := &http.Client{Timeout: time.Second}
	deadline := time.Now().Add(60 * time.Second)
	for {
		select {
		case err := <-d.exited:
			d.exited <- err
			return nil, fmt.Errorf("carserved exited during boot (%v); log in %s", err, logf.Name())
		default:
		}
		resp, err := hc.Get(d.base + "/healthz")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				hc.CloseIdleConnections()
				return d, nil
			}
		}
		if time.Now().After(deadline) {
			d.stop(false)
			return nil, fmt.Errorf("carserved did not become healthy within 60s")
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// peakRSSMB reads the daemon's peak resident set (VmHWM) in MiB.
func (d *daemon) peakRSSMB() (float64, error) {
	f, err := os.Open(fmt.Sprintf("/proc/%d/status", d.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0, fmt.Errorf("parsing VmHWM %q: %w", rest, err)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/%d/status", d.cmd.Process.Pid)
}

// cpuNS is the CPU time the daemon's threads have used, in ns.
func (d *daemon) cpuNS() int64 {
	dir := fmt.Sprintf("/proc/%d/task", d.cmd.Process.Pid)
	tasks, err := os.ReadDir(dir)
	if err != nil {
		return 0
	}
	var total int64
	for _, t := range tasks {
		b, err := os.ReadFile(filepath.Join(dir, t.Name(), "schedstat"))
		if err != nil {
			continue // the thread exited
		}
		f := strings.Fields(string(b))
		if len(f) > 0 {
			ns, _ := strconv.ParseInt(f[0], 10, 64)
			total += ns
		}
	}
	return total
}

// waitIdle waits, for at most 5s, until the daemon uses under 5% of a
// CPU over 20ms: its background work (subscription evaluation, journal
// commits, checkpoints) has drained.
func (d *daemon) waitIdle() {
	const probe = 20 * time.Millisecond
	for deadline := time.Now().Add(5 * time.Second); time.Now().Before(deadline); {
		before := d.cpuNS()
		time.Sleep(probe)
		if d.cpuNS()-before < int64(probe)/20 {
			return
		}
	}
}

// stop ends the daemon and waits for it: graceful sends SIGTERM and allows
// the shutdown checkpoint 20s, otherwise (or after that) SIGKILL. The
// journal directory is removed afterwards. Only the first call acts.
func (d *daemon) stop(graceful bool) error {
	d.stopOnce.Do(func() { d.stopErr = d.terminate(graceful) })
	return d.stopErr
}

func (d *daemon) terminate(graceful bool) error {
	defer os.RemoveAll(d.dir)
	if graceful {
		if err := d.cmd.Process.Signal(syscall.SIGTERM); err == nil {
			select {
			case err := <-d.exited:
				if err != nil {
					return fmt.Errorf("carserved shutdown: %w", err)
				}
				return nil
			case <-time.After(20 * time.Second):
			}
		}
	}
	_ = d.cmd.Process.Kill() // fails only if the process already exited
	<-d.exited
	return nil
}
