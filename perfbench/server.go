package main

import (
	"bytes"
	"fmt"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// server is one analogflowd process, observed only from outside: its HTTP
// API, its /v1/metrics scrape and /proc/<pid>.
type server struct {
	cmd  *exec.Cmd
	base string
	gc   *gcTrace
	done chan struct{} // closed once Wait has returned
}

// startServer launches the binary with the documented default flags, pinned
// to two workers and GOMAXPROCS=2, on a loopback port the kernel picks.
// With gctrace set the runtime's GC trace is parsed from its stderr.
func startServer(bin string, gctrace bool) (*server, error) {
	cmd := exec.Command(bin, "-addr", "127.0.0.1:0", "-workers", "2")
	cmd.Env = append(os.Environ(), "GOMAXPROCS=2")
	// The server must not outlive the benchmark, whatever ends it.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	addr := make(chan string, 1)
	cmd.Stdout = &firstLine{ch: addr}
	s := &server{cmd: cmd, done: make(chan struct{})}
	if gctrace {
		cmd.Env = append(cmd.Env, "GODEBUG=gctrace=1")
		s.gc = &gcTrace{}
		cmd.Stderr = s.gc
	}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("start analogflowd: %w", err)
	}
	go func() {
		_ = cmd.Wait()
		close(s.done)
	}()
	select {
	case a := <-addr:
		s.base = "http://" + a
		return s, nil
	case <-s.done:
		return nil, fmt.Errorf("analogflowd exited before listening")
	case <-time.After(30 * time.Second):
		s.stop()
		return nil, fmt.Errorf("analogflowd did not announce its address within 30s")
	}
}

// stop sends SIGTERM (the documented drain), and SIGKILL if the process is
// still alive after five seconds; it returns once the process has exited.
func (s *server) stop() {
	_ = s.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-s.done:
	case <-time.After(5 * time.Second):
		_ = s.cmd.Process.Kill()
		<-s.done
	}
}

// cpuMillis is the process's utime+stime from /proc/<pid>/stat.
func (s *server) cpuMillis() (float64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", s.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	// Fields after the parenthesised command name start at field 3 (state);
	// utime and stime are fields 14 and 15, in USER_HZ (100 on Linux) ticks.
	rest := b[bytes.LastIndexByte(b, ')')+2:]
	f := strings.Fields(string(rest))
	if len(f) < 13 {
		return 0, fmt.Errorf("short /proc stat: %q", b)
	}
	ut, err1 := strconv.ParseInt(f[11], 10, 64)
	st, err2 := strconv.ParseInt(f[12], 10, 64)
	if err1 != nil || err2 != nil {
		return 0, fmt.Errorf("parse /proc stat: %q", b)
	}
	return float64(ut+st) * 10, nil
}

// peakRSSMiB is VmHWM from /proc/<pid>/status.
func (s *server) peakRSSMiB() (float64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", s.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if f := strings.Fields(line); len(f) >= 2 && f[0] == "VmHWM:" {
			kb, err := strconv.ParseFloat(f[1], 64)
			return kb / 1024, err
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc status")
}

// hostCPU returns the machine's cumulative steal and total CPU ticks from the
// first line of /proc/stat.  Steal is time the hypervisor gave this VM's
// virtual CPUs to someone else; it explains runs that read slow.
func hostCPU() (steal, total float64, err error) {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0, err
	}
	line, _, _ := strings.Cut(string(b), "\n")
	f := strings.Fields(line) // cpu user nice system idle iowait irq softirq steal ...
	if len(f) < 9 || f[0] != "cpu" {
		return 0, 0, fmt.Errorf("unexpected /proc/stat line %q", line)
	}
	for i := 1; i <= 8; i++ {
		v, err := strconv.ParseFloat(f[i], 64)
		if err != nil {
			return 0, 0, fmt.Errorf("parse /proc/stat: %w", err)
		}
		total += v
	}
	steal, err = strconv.ParseFloat(f[8], 64)
	return steal, total, err
}

// firstLine captures the address from the server's first stdout line
// ("analogflowd: listening on <addr> (solvers: ...)") and discards the rest.
type firstLine struct {
	ch   chan string
	buf  []byte
	sent bool
}

func (w *firstLine) Write(p []byte) (int, error) {
	if w.sent {
		return len(p), nil
	}
	w.buf = append(w.buf, p...)
	if i := bytes.IndexByte(w.buf, '\n'); i >= 0 {
		f := strings.Fields(string(w.buf[:i]))
		if len(f) >= 4 && f[1] == "listening" {
			w.ch <- f[3]
		}
		w.sent = true
	}
	return len(p), nil
}

// gcTrace sums the CPU time of the GC cycles the runtime reports on stderr
// under GODEBUG=gctrace=1.  Each line carries
// "... ms clock, a+b/c/d+e ms cpu, ..."; all five terms (STW sweep
// termination, assist, background, idle and STW mark termination) count.
type gcTrace struct {
	mu    sync.Mutex
	part  []byte
	cpuMS float64
}

func (g *gcTrace) Write(p []byte) (int, error) {
	g.mu.Lock()
	defer g.mu.Unlock()
	g.part = append(g.part, p...)
	for {
		i := bytes.IndexByte(g.part, '\n')
		if i < 0 {
			break
		}
		g.parse(string(g.part[:i]))
		g.part = g.part[i+1:]
	}
	return len(p), nil
}

func (g *gcTrace) parse(line string) {
	if !strings.HasPrefix(line, "gc ") {
		return
	}
	end := strings.Index(line, " ms cpu")
	if end < 0 {
		return
	}
	start := strings.LastIndex(line[:end], " ")
	terms := strings.FieldsFunc(line[start+1:end], func(r rune) bool { return r == '+' || r == '/' })
	for _, t := range terms {
		v, err := strconv.ParseFloat(t, 64)
		if err != nil {
			return
		}
		g.cpuMS += v
	}
}

func (g *gcTrace) snapshot() float64 {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.cpuMS
}
