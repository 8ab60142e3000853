package main

import (
	"bufio"
	"fmt"
	"os"
	"runtime"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// commit is stamped by run.sh at build time (-ldflags -X main.commit=...).
var commit = "unknown"

// hostStamp identifies what produced a result: the commit and toolchain,
// and the machine it ran on. Two results are comparable only when their
// stamps agree.
func hostStamp() string {
	return fmt.Sprintf("commit=%s go=%s os/arch=%s/%s cpu=%q nproc=%d gomaxprocs=%d",
		commit, runtime.Version(), runtime.GOOS, runtime.GOARCH, cpuModel(),
		runtime.NumCPU(), runtime.GOMAXPROCS(0))
}

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

// noise is a diagnostic read beside each run: ticks the hypervisor stole
// from this guest and the load average. It is printed, never used to drop,
// rescale or repeat a sample.
type noise struct {
	steal int64
	load  string
}

func readNoise() noise {
	var n noise
	if b, err := os.ReadFile("/proc/stat"); err == nil {
		line, _, _ := strings.Cut(string(b), "\n")
		// cpu user nice system idle iowait irq softirq steal ...
		if f := strings.Fields(line); len(f) > 8 {
			n.steal, _ = strconv.ParseInt(f[8], 10, 64)
		}
	}
	if b, err := os.ReadFile("/proc/loadavg"); err == nil {
		if f := strings.Fields(string(b)); len(f) >= 3 {
			n.load = strings.Join(f[:3], " ")
		}
	}
	return n
}

// cpuTime is the process's user+system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// threadCPUTime is the calling OS thread's user+system CPU time
// (RUSAGE_THREAD); callers lock their goroutine to the thread. Time the
// hypervisor steals from this guest is not charged to the thread, unlike
// the wall clock.
func threadCPUTime() time.Duration {
	const rusageThread = 1
	var ru syscall.Rusage
	if err := syscall.Getrusage(rusageThread, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSSMB is the process's resident-set high-water mark (VmHWM). Each
// run is its own process, so one workload's peak cannot leak into
// another's.
func peakRSSMB() float64 {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, _ := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
			return kb / 1024
		}
	}
	return 0
}
