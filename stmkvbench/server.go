package main

import (
	"bufio"
	"fmt"
	"io"
	"os"
	"os/exec"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// server is one stmkv process started by the benchmark.
type server struct {
	cmd    *exec.Cmd
	addr   string
	stderr sync.WaitGroup // the stderr drain; ends when the process exits
}

// startServer launches stmkv on an ephemeral loopback port, on the
// given CPU (anywhere for -1), and waits until it announces its
// address (after any recovery has finished).
func startServer(bin string, cpu int, args ...string) (*server, error) {
	cmd := exec.Command(bin, append([]string{"-addr", "127.0.0.1:0"}, args...)...)
	cmd.Stdout = io.Discard
	if cpu >= 0 {
		// Confined to one CPU, the Go runtime would size GOMAXPROCS
		// to 1; keep the default of an unconfined server instead.
		cmd.Env = append(os.Environ(), fmt.Sprintf("GOMAXPROCS=%d", runtime.NumCPU()))
	}
	// If this process dies without killing the server (a signal, a
	// timeout), the kernel kills it, so no server outlives a run.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	pipe, err := cmd.StderrPipe()
	if err != nil {
		return nil, err
	}
	if err := onCPU(cpu, cmd.Start); err != nil {
		return nil, fmt.Errorf("start %s: %w", bin, err)
	}
	s := &server{cmd: cmd}
	addrc := make(chan string, 1)
	s.stderr.Add(1)
	go func() {
		defer s.stderr.Done()
		sc := bufio.NewScanner(pipe)
		sent := false
		for sc.Scan() {
			line := sc.Text()
			if _, rest, ok := strings.Cut(line, "serving on "); ok && !sent {
				addrc <- strings.Fields(rest)[0]
				sent = true
			} else if !strings.Contains(line, "recovered") {
				fmt.Fprintln(os.Stderr, "stmkv:", line)
			}
		}
		if !sent {
			close(addrc)
		}
	}()
	select {
	case addr, ok := <-addrc:
		if !ok {
			s.kill()
			return nil, fmt.Errorf("stmkv exited before serving")
		}
		s.addr = addr
		return s, nil
	case <-time.After(120 * time.Second):
		s.kill()
		return nil, fmt.Errorf("stmkv did not start serving within 120s")
	}
}

func (s *server) pid() int { return s.cmd.Process.Pid }

// kill ends the process with SIGKILL, as a crash would, and waits for
// it and its stderr drain.
func (s *server) kill() {
	_ = s.cmd.Process.Kill() // fails only if it already exited
	_ = s.cmd.Wait()         // the kill is the expected exit status
	s.stderr.Wait()
}

// pingReady dials the server and waits for its PING reply; the time
// from launch to this reply is what a restarting client waits.
func pingReady(addr string) (*conn, error) {
	c, err := dialConn(addr)
	if err != nil {
		return nil, err
	}
	var r reply
	if err := c.must(&r, "PING"); err != nil {
		c.c.Close()
		return nil, err
	}
	return c, nil
}

// info reads one INFO section as numeric fields.
func info(c *conn, section string) (map[string]float64, error) {
	var r reply
	if err := c.must(&r, "INFO", section); err != nil {
		return nil, err
	}
	out := make(map[string]float64)
	for _, line := range strings.Split(string(r.str), "\r\n") {
		k, v, ok := strings.Cut(line, ":")
		if !ok {
			continue
		}
		if f, err := strconv.ParseFloat(v, 64); err == nil {
			out[k] = f
		}
	}
	return out, nil
}

// infoAll reads the stm, contention and (durable) wal sections, keyed
// "<section>.<field>".
func infoAll(c *conn, durable bool) (map[string]float64, error) {
	out := make(map[string]float64)
	sections := []string{"stm", "contention"}
	if durable {
		sections = append(sections, "wal")
	}
	for _, s := range sections {
		m, err := info(c, s)
		if err != nil {
			return nil, err
		}
		for k, v := range m {
			out[s+"."+k] = v
		}
	}
	return out, nil
}

// preload writes every string key at version 0 with batched MSETs,
// spread over the connections, keeping a few batches in flight.
func preload(conns []*conn, ks *keyspace) error {
	const inflight = 4
	errs := make(chan error, len(conns))
	for ci, c := range conns {
		go func() {
			errs <- func() error {
				var batches []int
				for b := ci * preloadBat; b < len(ks.keys); b += len(conns) * preloadBat {
					batches = append(batches, b)
				}
				var r reply
				for len(batches) > 0 {
					n := min(inflight, len(batches))
					for _, b := range batches[:n] {
						end := min(b+preloadBat, len(ks.keys))
						c.out = appendArrayHeader(c.out, 1+2*(end-b))
						c.out = appendBulk(c.out, "MSET")
						for i := b; i < end; i++ {
							c.out = appendBulk(c.out, ks.keys[i])
							c.out = append(c.out, "$"+strconv.Itoa(valueSize)+"\r\n"...)
							c.out = appendValue(c.out, ks.keys[i], 0)
							c.out = append(c.out, '\r', '\n')
						}
					}
					if err := c.flush(); err != nil {
						return err
					}
					for range n {
						if err := c.read(&r); err != nil {
							return err
						}
						if r.kind != '+' {
							return fmt.Errorf("preload MSET: %s", r.describe())
						}
					}
					batches = batches[n:]
				}
				return nil
			}()
		}()
	}
	var first error
	for range conns {
		if err := <-errs; err != nil && first == nil {
			first = err
		}
	}
	return first
}

// dirBytes is the total size of the regular files under dir.
func dirBytes(dir string) (int64, error) {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return 0, err
	}
	var n int64
	for _, e := range ents {
		fi, err := e.Info()
		if err != nil {
			return 0, err
		}
		if fi.Mode().IsRegular() {
			n += fi.Size()
		}
	}
	return n, nil
}

// copyDir copies the regular files of src into a fresh dst.
func copyDir(src, dst string) error {
	if err := os.RemoveAll(dst); err != nil {
		return err
	}
	if err := os.MkdirAll(dst, 0o755); err != nil {
		return err
	}
	ents, err := os.ReadDir(src)
	if err != nil {
		return err
	}
	for _, e := range ents {
		if !e.Type().IsRegular() {
			continue
		}
		b, err := os.ReadFile(src + "/" + e.Name())
		if err != nil {
			return err
		}
		if err := os.WriteFile(dst+"/"+e.Name(), b, 0o644); err != nil {
			return err
		}
	}
	return nil
}
