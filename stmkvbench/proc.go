package main

import (
	"bufio"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"
)

// clockTicks is USER_HZ, the unit of utime and stime in /proc/<pid>/stat.
// It is 100 on every Linux architecture Go supports.
const clockTicks = 100

// procSnap is one reading of a process's counters from /proc.
type procSnap struct {
	cpuTicks   int64 // utime + stime, in clockTicks
	syscR      int64 // read-family syscalls (/proc/<pid>/io syscr)
	syscW      int64 // write-family syscalls (/proc/<pid>/io syscw)
	ctxSwitch  int64 // voluntary + involuntary, summed over threads
	peakRSSKiB int64 // VmHWM
}

// cpuMicros is the snapshot's CPU time in microseconds.
func (p procSnap) cpuMicros() float64 { return float64(p.cpuTicks) * 1e6 / clockTicks }

// readProc reads pid's counters; pid 0 means this process.
func readProc(pid int) (procSnap, error) {
	dir := "/proc/self"
	if pid != 0 {
		dir = "/proc/" + strconv.Itoa(pid)
	}
	var s procSnap
	stat, err := os.ReadFile(filepath.Join(dir, "stat"))
	if err != nil {
		return s, err
	}
	if s.cpuTicks, err = parseStat(string(stat)); err != nil {
		return s, err
	}
	io, err := os.ReadFile(filepath.Join(dir, "io"))
	if err != nil {
		return s, err
	}
	if s.syscR, s.syscW, err = parseIO(string(io)); err != nil {
		return s, err
	}
	status, err := os.ReadFile(filepath.Join(dir, "status"))
	if err != nil {
		return s, err
	}
	st, err := parseStatus(string(status))
	if err != nil {
		return s, err
	}
	s.peakRSSKiB = st.vmHWM
	// The ctxt_switches lines of <pid>/status count the main thread
	// only; the process total is the sum over its tasks.
	tasks, err := filepath.Glob(filepath.Join(dir, "task", "*", "status"))
	if err != nil {
		return s, err
	}
	for _, t := range tasks {
		b, err := os.ReadFile(t)
		if err != nil {
			continue // the thread exited between the glob and the read
		}
		ts, err := parseStatus(string(b))
		if err != nil {
			return s, err
		}
		s.ctxSwitch += ts.volCtx + ts.nonvolCtx
	}
	return s, nil
}

// parseStat returns utime+stime from the text of /proc/<pid>/stat.
// The command name (field 2) may hold spaces and parentheses, so
// fields are counted from the last ')'.
func parseStat(text string) (int64, error) {
	i := strings.LastIndexByte(text, ')')
	if i < 0 {
		return 0, fmt.Errorf("proc stat: no command name")
	}
	f := strings.Fields(text[i+1:])
	// f[0] is field 3 (state); utime and stime are fields 14 and 15.
	if len(f) < 13 {
		return 0, fmt.Errorf("proc stat: %d fields after the command name, want at least 13", len(f))
	}
	utime, err := strconv.ParseInt(f[11], 10, 64)
	if err != nil {
		return 0, fmt.Errorf("proc stat utime: %w", err)
	}
	stime, err := strconv.ParseInt(f[12], 10, 64)
	if err != nil {
		return 0, fmt.Errorf("proc stat stime: %w", err)
	}
	return utime + stime, nil
}

// parseIO returns the syscr and syscw counters of /proc/<pid>/io.
func parseIO(text string) (syscr, syscw int64, err error) {
	v, err := parseKeyed(text, "syscr", "syscw")
	if err != nil {
		return 0, 0, fmt.Errorf("proc io: %w", err)
	}
	return v[0], v[1], nil
}

// statusFields are the /proc/<pid>/status lines the benchmark reads.
type statusFields struct {
	vmHWM     int64 // KiB
	volCtx    int64
	nonvolCtx int64
}

// parseStatus reads VmHWM and the context-switch counters of
// /proc/<pid>/status. VmHWM is absent for kernel threads and zombies.
func parseStatus(text string) (statusFields, error) {
	v, err := parseKeyed(text, "voluntary_ctxt_switches", "nonvoluntary_ctxt_switches")
	if err != nil {
		return statusFields{}, fmt.Errorf("proc status: %w", err)
	}
	st := statusFields{volCtx: v[0], nonvolCtx: v[1]}
	if hwm, err := parseKeyed(text, "VmHWM"); err == nil {
		st.vmHWM = hwm[0]
	}
	return st, nil
}

// parseKeyed reads "key: value [unit]" lines and returns the integer
// values of keys, in order; every key must be present.
func parseKeyed(text string, keys ...string) ([]int64, error) {
	out := make([]int64, len(keys))
	found := make([]bool, len(keys))
	sc := bufio.NewScanner(strings.NewReader(text))
	for sc.Scan() {
		k, rest, ok := strings.Cut(sc.Text(), ":")
		if !ok {
			continue
		}
		for i, want := range keys {
			if k != want {
				continue
			}
			f := strings.Fields(rest)
			if len(f) == 0 {
				return nil, fmt.Errorf("%s: no value", k)
			}
			n, err := strconv.ParseInt(f[0], 10, 64)
			if err != nil {
				return nil, fmt.Errorf("%s: %w", k, err)
			}
			out[i], found[i] = n, true
		}
	}
	for i, ok := range found {
		if !ok {
			return nil, fmt.Errorf("no %s line", keys[i])
		}
	}
	return out, nil
}

// hostCPU is the first line of /proc/stat: the machine's CPU time by
// state, in clockTicks.
type hostCPU struct{ total, steal int64 }

func readHostCPU() (hostCPU, error) {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return hostCPU{}, err
	}
	return parseHostCPU(string(b))
}

// parseHostCPU reads the aggregate "cpu" line of /proc/stat; steal is
// its eighth value.
func parseHostCPU(text string) (hostCPU, error) {
	line, _, _ := strings.Cut(text, "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return hostCPU{}, fmt.Errorf("proc stat: no aggregate cpu line")
	}
	var h hostCPU
	for i, v := range f[1:] {
		n, err := strconv.ParseInt(v, 10, 64)
		if err != nil {
			return hostCPU{}, fmt.Errorf("proc stat cpu: %w", err)
		}
		h.total += n
		if i == 7 {
			h.steal = n
		}
	}
	return h, nil
}
