package main

import "testing"

func TestParseStat(t *testing.T) {
	// A command name with a space and a parenthesis, as the kernel
	// prints it; utime is 1234 and stime 56.
	text := "4242 (my (odd) cmd) S 1 4242 4242 0 -1 4194560 1000 0 0 0 1234 56 0 0 20 0 7 0 100 1000000 2000 18446744073709551615 1 1 0 0 0 0 0 0 0 0 0 0 17 1 0 0 0 0 0\n"
	got, err := parseStat(text)
	if err != nil || got != 1290 {
		t.Fatalf("parseStat = %d, %v; want 1290", got, err)
	}
	if _, err := parseStat("4242 (short) S 1 2\n"); err == nil {
		t.Error("parseStat accepted a truncated line")
	}
	if _, err := parseStat("no command name"); err == nil {
		t.Error("parseStat accepted a line without a command name")
	}
}

func TestParseIO(t *testing.T) {
	text := "rchar: 3980\nwchar: 120\nsyscr: 9\nsyscw: 4\nread_bytes: 0\nwrite_bytes: 0\ncancelled_write_bytes: 0\n"
	r, w, err := parseIO(text)
	if err != nil || r != 9 || w != 4 {
		t.Fatalf("parseIO = %d, %d, %v; want 9, 4", r, w, err)
	}
	if _, _, err := parseIO("rchar: 1\n"); err == nil {
		t.Error("parseIO accepted text without syscr")
	}
}

func TestParseStatus(t *testing.T) {
	text := "Name:\tstmkv\nState:\tS (sleeping)\nVmPeak:\t  250000 kB\nVmHWM:\t  183918 kB\nVmRSS:\t  170000 kB\nThreads:\t7\nvoluntary_ctxt_switches:\t1500\nnonvoluntary_ctxt_switches:\t27\n"
	st, err := parseStatus(text)
	if err != nil || st.vmHWM != 183918 || st.volCtx != 1500 || st.nonvolCtx != 27 {
		t.Fatalf("parseStatus = %+v, %v", st, err)
	}
	// Thread status files have no VmHWM line.
	st, err = parseStatus("Name:\tstmkv\nvoluntary_ctxt_switches:\t3\nnonvoluntary_ctxt_switches:\t4\n")
	if err != nil || st.vmHWM != 0 || st.volCtx != 3 {
		t.Fatalf("thread parseStatus = %+v, %v", st, err)
	}
	if _, err := parseStatus("Name:\tx\n"); err == nil {
		t.Error("parseStatus accepted text without context switches")
	}
}

func TestParseHostCPU(t *testing.T) {
	text := "cpu  84157 0 16909 520005 3328 0 4132 16919 0 0\ncpu0 1 2 3 4 5 6 7 8 0 0\n"
	h, err := parseHostCPU(text)
	if err != nil || h.steal != 16919 || h.total != 84157+16909+520005+3328+4132+16919 {
		t.Fatalf("parseHostCPU = %+v, %v", h, err)
	}
	if _, err := parseHostCPU("intr 1 2 3\n"); err == nil {
		t.Error("parseHostCPU accepted text without a cpu line")
	}
}

func TestReadProcSelf(t *testing.T) {
	s, err := readProc(0)
	if err != nil {
		t.Fatal(err)
	}
	if s.peakRSSKiB <= 0 || s.ctxSwitch <= 0 || s.syscR <= 0 {
		t.Errorf("implausible /proc/self reading %+v", s)
	}
}
