package main

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// server is one daemon process (cspd or cspr) started from the binaries
// built from the tree under test, listening on an ephemeral loopback port.
type server struct {
	name string
	cmd  *exec.Cmd
	url  string // http://127.0.0.1:<port>
	done chan struct{}

	mu   sync.Mutex
	tail []string // last stderr lines, for error reports
}

// listenRE matches the address both daemons log once they are listening.
var listenRE = regexp.MustCompile(`on (127\.0\.0\.1:\d+) \(`)

// running tracks every started process so a failure or a signal anywhere
// still stops them all.
var running struct {
	sync.Mutex
	procs []*server
}

// startServer launches bin with a loopback ephemeral address and waits
// until it has logged its port.
func startServer(ctx context.Context, bin string, args ...string) (*server, error) {
	s := &server{name: filepath.Base(bin), done: make(chan struct{})}
	s.cmd = exec.Command(bin, append([]string{"-addr", "127.0.0.1:0"}, args...)...)
	// Tie the child's life to this process: if the benchmark dies without
	// its cleanup, the kernel stops the daemon too.
	s.cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	stderr, err := s.cmd.StderrPipe()
	if err != nil {
		return nil, err
	}
	if err := s.cmd.Start(); err != nil {
		return nil, fmt.Errorf("start %s: %w", s.name, err)
	}
	running.Lock()
	running.procs = append(running.procs, s)
	running.Unlock()

	addr := make(chan string, 1)
	go func() {
		sc := bufio.NewScanner(stderr)
		sent := false
		//lint:ignore ctxloop bounded: the scan ends at EOF when the child exits, and every child is stopped by stop or Pdeathsig
		for sc.Scan() {
			line := sc.Text()
			s.mu.Lock()
			s.tail = append(s.tail, line)
			if len(s.tail) > 20 {
				s.tail = s.tail[1:]
			}
			s.mu.Unlock()
			if m := listenRE.FindStringSubmatch(line); m != nil && !sent {
				addr <- m[1]
				sent = true
			}
		}
		_, _ = io.Copy(io.Discard, stderr)
		_ = s.cmd.Wait()
		close(s.done)
	}()
	select {
	case a := <-addr:
		s.url = "http://" + a
		return s, nil
	case <-s.done:
		return nil, fmt.Errorf("%s exited before listening: %s", s.name, s.stderrTail())
	case <-ctx.Done():
		s.stop()
		return nil, ctx.Err()
	case <-time.After(30 * time.Second):
		s.stop()
		return nil, fmt.Errorf("%s did not report a listen address", s.name)
	}
}

func (s *server) stderrTail() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return strings.Join(s.tail, "\n")
}

// stop sends SIGTERM (the daemons drain and exit 0) and waits for the
// process to end, escalating to SIGKILL if the drain overruns.
func (s *server) stop() {
	_ = s.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-s.done:
	case <-time.After(20 * time.Second):
		_ = s.cmd.Process.Kill()
		<-s.done
	}
	running.Lock()
	for i, p := range running.procs {
		if p == s {
			running.procs = append(running.procs[:i], running.procs[i+1:]...)
			break
		}
	}
	running.Unlock()
}

// stopAll stops every process still running.
func stopAll() {
	running.Lock()
	procs := append([]*server(nil), running.procs...)
	running.Unlock()
	for _, s := range procs {
		s.stop()
	}
}

// waitHealthy polls GET /healthz until it answers 200.
func waitHealthy(ctx context.Context, c *http.Client, url string) error {
	deadline := time.Now().Add(30 * time.Second)
	for {
		resp, err := c.Get(url + "/healthz")
		if err == nil {
			_, _ = io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("%s/healthz not ready: %v", url, err)
		}
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-time.After(time.Millisecond):
		}
	}
}

// waitReplicasLive polls cspr's GET /replicas until every replica is live,
// so warming never races the router's first health sweep.
func waitReplicasLive(ctx context.Context, c *http.Client, url string, want int) error {
	deadline := time.Now().Add(30 * time.Second)
	for {
		var rows []struct {
			Live bool `json:"live"`
		}
		live := 0
		resp, err := c.Get(url + "/replicas")
		if err == nil {
			err = json.NewDecoder(resp.Body).Decode(&rows)
			resp.Body.Close()
			for _, r := range rows {
				if r.Live {
					live++
				}
			}
		}
		if live == want {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("%s/replicas: %d of %d live (%v)", url, live, want, err)
		}
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-time.After(time.Millisecond):
		}
	}
}

// clockTicks is USER_HZ, the unit of /proc/<pid>/stat CPU times; it is 100
// on every Linux architecture Go supports.
const clockTicks = 100

// cpuSeconds reads user+system CPU time of the process from /proc.
func (s *server) cpuSeconds() (float64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", s.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	// The command name (field 2) may hold spaces; fields after its closing
	// parenthesis are positional: utime and stime are fields 14 and 15.
	i := strings.LastIndexByte(string(b), ')')
	if i < 0 {
		return 0, errors.New("malformed /proc stat")
	}
	f := strings.Fields(string(b[i+1:]))
	if len(f) < 13 {
		return 0, errors.New("short /proc stat")
	}
	ut, err1 := strconv.ParseInt(f[11], 10, 64)
	st, err2 := strconv.ParseInt(f[12], 10, 64)
	if err1 != nil || err2 != nil {
		return 0, errors.New("bad /proc stat cpu fields")
	}
	return float64(ut+st) / clockTicks, nil
}

// hostCPU reads the machine-wide "cpu" line of /proc/stat: total, idle
// (idle+iowait) and stolen ticks. Steal slows every wall-clock figure
// without showing in any process's CPU time.
func hostCPU() (total, idle, steal int64) {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0, 0
	}
	line, _, _ := strings.Cut(string(b), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return 0, 0, 0
	}
	for i, v := range f[1:] {
		n, _ := strconv.ParseInt(v, 10, 64)
		if i < 8 { // user nice system idle iowait irq softirq steal; guest is inside user
			total += n
		}
		switch i {
		case 3, 4:
			idle += n
		case 7:
			steal = n
		}
	}
	return total, idle, steal
}

// selfCPUSeconds is the user+system CPU time of this process.
func selfCPUSeconds() float64 {
	var ru syscall.Rusage
	if syscall.Getrusage(syscall.RUSAGE_SELF, &ru) != nil {
		return 0
	}
	return float64(ru.Utime.Nano()+ru.Stime.Nano()) / 1e9
}

// peakRSSMB reads VmHWM, the process's peak resident set, from /proc.
func (s *server) peakRSSMB() (float64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", s.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if strings.HasPrefix(line, "VmHWM:") {
			f := strings.Fields(line)
			if len(f) >= 2 {
				kb, err := strconv.ParseFloat(f[1], 64)
				return kb / 1024, err
			}
		}
	}
	return 0, errors.New("no VmHWM in /proc status")
}

// deployment is the set of servers one workload runs against.
type deployment struct {
	front *server   // the address clients send to
	nodes []*server // the cspd processes
	all   []*server
}

// deploy starts cspd alone, or two cspd replicas behind cspr, with default
// flags except the loopback address, and waits until they are ready.
func deploy(ctx context.Context, binDir string, routed bool, c *http.Client) (*deployment, error) {
	d := &deployment{}
	nodes := 1
	if routed {
		nodes = 2
	}
	var urls []string
	for i := 0; i < nodes; i++ {
		s, err := startServer(ctx, filepath.Join(binDir, "cspd"))
		if err != nil {
			d.stop()
			return nil, err
		}
		d.nodes = append(d.nodes, s)
		d.all = append(d.all, s)
		urls = append(urls, s.url)
	}
	d.front = d.nodes[0]
	if routed {
		s, err := startServer(ctx, filepath.Join(binDir, "cspr"), "-replicas", strings.Join(urls, ","))
		if err != nil {
			d.stop()
			return nil, err
		}
		d.front = s
		d.all = append(d.all, s)
	}
	for _, s := range d.all {
		if err := waitHealthy(ctx, c, s.url); err != nil {
			d.stop()
			return nil, err
		}
	}
	if routed {
		if err := waitReplicasLive(ctx, c, d.front.url, nodes); err != nil {
			d.stop()
			return nil, err
		}
	}
	return d, nil
}

// stop stops the router first, then the replicas.
func (d *deployment) stop() {
	for i := len(d.all) - 1; i >= 0; i-- {
		d.all[i].stop()
	}
}

// cpuReading is one reading of the machine's CPU counters and of the CPU
// time of the benchmark's own processes.
type cpuReading struct {
	at                 time.Time
	total, idle, steal int64   // /proc/stat ticks
	ours               float64 // seconds: the servers and this process
}

func readCPU(d *deployment) cpuReading {
	c := cpuReading{at: time.Now(), ours: selfCPUSeconds()}
	c.total, c.idle, c.steal = hostCPU()
	for _, s := range d.all {
		sec, _ := s.cpuSeconds()
		c.ours += sec
	}
	return c
}

// noiseTicks returns the host's ticks between two readings, and of those
// the ticks stolen by the hypervisor and the ticks other processes were
// busy.
func noiseTicks(a, b cpuReading) (total, steal, foreign int64) {
	total, steal = b.total-a.total, b.steal-a.steal
	busy := total - (b.idle - a.idle) - steal
	foreign = max(0, busy-int64((b.ours-a.ours)*clockTicks))
	return total, steal, foreign
}

// sampleCPU reads the CPU counters every `every` until the returned
// function is called, which takes a last reading and returns them all.
func sampleCPU(d *deployment, every time.Duration) func() []cpuReading {
	readings := []cpuReading{readCPU(d)}
	quit, done := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(done)
		tk := time.NewTicker(every)
		defer tk.Stop()
		for {
			select {
			case <-quit:
				return
			case <-tk.C:
				readings = append(readings, readCPU(d))
			}
		}
	}()
	return func() []cpuReading {
		close(quit)
		<-done
		return append(readings, readCPU(d))
	}
}
