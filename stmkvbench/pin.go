package main

import (
	"fmt"
	"os"
	"runtime"
	"slices"
	"strconv"
	"syscall"
	"unsafe"
)

// cpuMask is a Linux CPU affinity mask of up to 1024 CPUs.
type cpuMask [16]uint64

func (m *cpuMask) has(cpu int) bool { return m[cpu/64]&(1<<(cpu%64)) != 0 }
func (m *cpuMask) add(cpu int)      { m[cpu/64] |= 1 << (cpu % 64) }

func getAffinity(tid int) (cpuMask, error) {
	var m cpuMask
	_, _, e := syscall.RawSyscall(syscall.SYS_SCHED_GETAFFINITY, uintptr(tid), unsafe.Sizeof(m), uintptr(unsafe.Pointer(&m)))
	if e != 0 {
		return m, e
	}
	return m, nil
}

func setAffinity(tid int, m cpuMask) error {
	_, _, e := syscall.RawSyscall(syscall.SYS_SCHED_SETAFFINITY, uintptr(tid), unsafe.Sizeof(m), uintptr(unsafe.Pointer(&m)))
	if e != 0 {
		return e
	}
	return nil
}

// cpuSplit is the kv workloads' placement: the server's threads run on
// one CPU and this process's on another. Unplaced, the server's and the
// generator's busy threads outnumber the CPUs of a 2-CPU box and
// compete for them, and the share each gets moves from run to run.
//
// The server keeps its default GOMAXPROCS (the machine's CPU count),
// so each connection's goroutine can hold a P of its own and the
// kernel rotates them on the server's CPU in short slices. With
// GOMAXPROCS 1, a connection whose next requests arrive while its
// replies are written never blocks, so it keeps the only P until the
// Go scheduler preempts it 10 ms later while the other connection
// waits; that set the p99, which moved by half between runs. The
// generator runs with GOMAXPROCS 1: its goroutines block on every read
// of a reply not yet sent.
type cpuSplit struct {
	client, server int // CPU numbers; -1 when the box has fewer than two
}

// pinClient moves every thread of this process onto one CPU, leaving
// another for the server, and sets GOMAXPROCS to 1; undo puts both
// back. Threads the runtime starts later inherit the mask of the thread
// that starts them.
func pinClient() (split cpuSplit, undo func(), err error) {
	split, undo = cpuSplit{-1, -1}, func() {}
	all, err := getAffinity(0)
	if err != nil {
		return split, undo, err
	}
	var cpus []int
	for c := range len(all) * 64 {
		if all.has(c) {
			cpus = append(cpus, c)
		}
	}
	if len(cpus) < 2 {
		return split, undo, nil
	}
	var one cpuMask
	one.add(cpus[0])
	procs := runtime.GOMAXPROCS(1)
	undo = func() {
		_ = setAll(all) // a thread left on one CPU only runs slower
		runtime.GOMAXPROCS(procs)
	}
	if err := setAll(one); err != nil {
		undo()
		return split, func() {}, err
	}
	return cpuSplit{client: cpus[0], server: cpus[1]}, undo, nil
}

// setAll sets the affinity of every thread of this process to m.
// Threads can start while the earlier ones are set; it repeats until a
// pass finds none left.
func setAll(m cpuMask) error {
	var done []int
	for {
		tids, err := threads()
		if err != nil {
			return err
		}
		moved := false
		for _, tid := range tids {
			if slices.Contains(done, tid) {
				continue
			}
			if err := setAffinity(tid, m); err != nil && err != syscall.ESRCH {
				return fmt.Errorf("thread %d: %w", tid, err)
			}
			done = append(done, tid)
			moved = true
		}
		if !moved {
			return nil
		}
	}
}

// threads lists this process's thread ids.
func threads() ([]int, error) {
	ents, err := os.ReadDir("/proc/self/task")
	if err != nil {
		return nil, err
	}
	var out []int
	for _, e := range ents {
		if tid, err := strconv.Atoi(e.Name()); err == nil {
			out = append(out, tid)
		}
	}
	return out, nil
}

// onCPU runs start with the calling thread's affinity set to cpu (no
// change when cpu is -1), so that a process start launches inherits
// the mask and its Go runtime sizes GOMAXPROCS to that one CPU.
func onCPU(cpu int, start func() error) error {
	if cpu < 0 {
		return start()
	}
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	old, err := getAffinity(0)
	if err != nil {
		return err
	}
	var one cpuMask
	one.add(cpu)
	if err := setAffinity(0, one); err != nil {
		return err
	}
	err = start()
	if rerr := setAffinity(0, old); err == nil {
		err = rerr
	}
	return err
}
