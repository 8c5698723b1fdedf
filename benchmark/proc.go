package main

import (
	"fmt"
	"os"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// selfCPU is the benchmark process's user+system CPU so far.
func selfCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// clockTick is the kernel's USER_HZ, the unit of /proc/<pid>/stat times;
// 100 on every Linux platform Go supports.
const clockTick = 10 * time.Millisecond

// procCPU is process pid's user+system CPU so far, from /proc/<pid>/stat.
func procCPU(pid int) (time.Duration, error) {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0, fmt.Errorf("benchmark: read stat: %w", err)
	}
	// The command name (field 2) may hold spaces; fields resume after ")".
	rest := string(data[strings.LastIndexByte(string(data), ')')+1:])
	f := strings.Fields(rest)
	if len(f) < 13 {
		return 0, fmt.Errorf("benchmark: short /proc/%d/stat", pid)
	}
	utime, err1 := strconv.ParseInt(f[11], 10, 64)
	stime, err2 := strconv.ParseInt(f[12], 10, 64)
	if err1 != nil || err2 != nil {
		return 0, fmt.Errorf("benchmark: bad times in /proc/%d/stat", pid)
	}
	return time.Duration(utime+stime) * clockTick, nil
}

// peakRSSMB is process pid's resident high-water mark (VmHWM) in MB.
func peakRSSMB(pid int) (float64, error) {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0, fmt.Errorf("benchmark: read status: %w", err)
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0, fmt.Errorf("benchmark: bad VmHWM %q", rest)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("benchmark: no VmHWM for pid %d", pid)
}

// setupMedian sets up reps times, dropping every state but the last, and
// returns that state with the median set-up time in (speed-normalised)
// seconds. Setting up several times in one run is what keeps setup_s steady
// enough to bound.
func setupMedian[T any](reps int, build func() (T, error), drop func(T) error) (T, float64, error) {
	var st T
	var secs []float64
	for i := 0; i < reps; i++ {
		if i > 0 {
			if err := drop(st); err != nil {
				return st, 0, err
			}
		}
		var err error
		sp := newSpeedometer(1)
		d := stopwatch(func() { st, err = build() })
		if err != nil {
			return st, 0, err
		}
		secs = append(secs, d.Seconds()*sp.factor())
	}
	return st, median(secs), nil
}
