package main

import (
	"fmt"
	"os"
	"path/filepath"
	"syscall"
	"time"
)

// Host CPU time, not wall time, is what the end-to-end metrics charge:
// on a shared virtual machine the hypervisor deschedules vCPUs (steal
// time), which stretches wall time by tens of percent from one minute to
// the next while the CPU time a process is charged for the same work
// stays put. The scheduler's per-thread run time excludes steal.

// procCPU is the CPU time charged so far to every live thread of a
// process ("self" for this process): the sum of the first field of
// /proc/<pid>/task/*/schedstat, in nanoseconds.
func procCPU(pid string) (time.Duration, error) {
	paths, err := filepath.Glob(filepath.Join("/proc", pid, "task", "*", "schedstat"))
	if err != nil {
		return 0, err
	}
	if len(paths) == 0 {
		return 0, fmt.Errorf("no threads under /proc/%s/task", pid)
	}
	var total time.Duration
	for _, p := range paths {
		data, err := os.ReadFile(p)
		if err != nil {
			continue // the thread exited between the glob and the read
		}
		var ns int64
		if _, err := fmt.Sscan(string(data), &ns); err != nil {
			return 0, fmt.Errorf("%s: %w", p, err)
		}
		total += time.Duration(ns)
	}
	return total, nil
}

// cpu returns the CPU time charged to the system under test so far: the
// harness process (the in-process workloads) plus every evalserve child
// it started — the running ones from /proc, the exited ones from their
// rusage.
func (b *bench) cpu() (time.Duration, error) {
	total, err := procCPU("self")
	if err != nil {
		return 0, err
	}
	for _, s := range b.children {
		d, err := s.cpu()
		if err != nil {
			return 0, err
		}
		total += d
	}
	return total, nil
}

// cpu is the CPU time charged to the server process so far.
func (s *server) cpu() (time.Duration, error) {
	select {
	case <-s.done:
		return exitedCPU(s), nil
	default:
	}
	d, err := procCPU(s.pid())
	if err == nil {
		return d, nil
	}
	// It may have exited between the check and the read.
	select {
	case <-s.done:
		return exitedCPU(s), nil
	case <-time.After(time.Second):
		return 0, err
	}
}

func exitedCPU(s *server) time.Duration {
	if ru, ok := s.cmd.ProcessState.SysUsage().(*syscall.Rusage); ok {
		return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
	}
	return 0
}
