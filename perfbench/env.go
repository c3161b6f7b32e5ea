package main

import (
	"bufio"
	"fmt"
	"os"
	"strconv"
	"strings"
	"syscall"
)

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

func kernelRelease() string {
	b, err := os.ReadFile("/proc/sys/kernel/osrelease")
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(b))
}

// fsType names the filesystem holding dir (where the journals live).
func fsType(dir string) string {
	var st syscall.Statfs_t
	if err := syscall.Statfs(dir, &st); err != nil {
		return "unknown"
	}
	switch uint64(st.Type) {
	case 0xEF53:
		return "ext4"
	case 0x01021994:
		return "tmpfs"
	case 0x794C7630:
		return "overlayfs"
	case 0x58465342:
		return "xfs"
	case 0x9123683E:
		return "btrfs"
	case 0x65735546:
		return "fuse"
	}
	return fmt.Sprintf("0x%x", uint64(st.Type))
}

// cpuTimes reads the stolen and total CPU time (clock ticks) from
// /proc/stat; steal is time the hypervisor ran something else while this
// machine's CPUs had work.
func cpuTimes() (steal, total int64) {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0
	}
	line, _, _ := strings.Cut(string(b), "\n")
	f := strings.Fields(line)
	// user nice system idle iowait irq softirq steal; guest time is
	// already inside user and nice.
	for i, s := range f[1:min(len(f), 9)] {
		v, err := strconv.ParseInt(s, 10, 64)
		if err != nil {
			continue
		}
		total += v
		if i == 7 {
			steal = v
		}
	}
	return steal, total
}

// stealMeter reports the share of CPU time stolen by the hypervisor over
// an interval, so a reader can tell a slow run from a slow host.
type stealMeter struct{ steal, total int64 }

func startSteal() stealMeter {
	s, t := cpuTimes()
	return stealMeter{s, t}
}

func (m stealMeter) percent() float64 {
	s, t := cpuTimes()
	if t == m.total {
		return 0
	}
	return 100 * float64(s-m.steal) / float64(t-m.total)
}
