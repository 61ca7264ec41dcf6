package main

import (
	"bufio"
	"bytes"
	"context"
	"fmt"
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

// janitor owns everything a run must undo: child processes and temporary
// directories. sweep is idempotent and is reached from every exit path —
// normal return, failure, panic, SIGINT/SIGTERM and the workload deadline.
type janitor struct {
	mu    sync.Mutex
	procs map[*proc]struct{}
	dirs  map[string]struct{}
}

var cleanup = &janitor{procs: map[*proc]struct{}{}, dirs: map[string]struct{}{}}

func (j *janitor) addDir(dir string) {
	j.mu.Lock()
	j.dirs[dir] = struct{}{}
	j.mu.Unlock()
}

func (j *janitor) removeDir(dir string) {
	j.mu.Lock()
	delete(j.dirs, dir)
	j.mu.Unlock()
	os.RemoveAll(dir)
}

func (j *janitor) sweep() {
	j.mu.Lock()
	procs := make([]*proc, 0, len(j.procs))
	for p := range j.procs {
		procs = append(procs, p)
	}
	dirs := make([]string, 0, len(j.dirs))
	for d := range j.dirs {
		dirs = append(dirs, d)
	}
	j.mu.Unlock()
	for _, p := range procs {
		p.kill()
	}
	for _, d := range dirs {
		j.removeDir(d)
	}
}

// proc is one child bayesd.
type proc struct {
	name string
	cmd  *exec.Cmd
	addr chan string // the child's own listen URL, parsed from its stdout
	tail *tailBuffer
	done chan struct{} // closed once Wait returned
	once sync.Once
}

// listenLine matches the address a bayesd prints once it is serving:
// "listening on http://ADDR" or "worker N (...) on http://ADDR, pulling".
var listenLine = regexp.MustCompile(`on (http://[0-9.]+:[0-9]+)`)

// spawn starts bin with args in its own process group. The child dies
// with the benchmark even if the benchmark is SIGKILLed (Pdeathsig).
func spawn(name, bin string, args ...string) (*proc, error) {
	p := &proc{name: name, addr: make(chan string, 1), tail: &tailBuffer{max: 4096}, done: make(chan struct{})}
	p.cmd = exec.Command(bin, args...)
	p.cmd.SysProcAttr = &syscall.SysProcAttr{Setpgid: true, Pdeathsig: syscall.SIGKILL}
	p.cmd.Stderr = p.tail
	stdout, err := p.cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	if err := p.cmd.Start(); err != nil {
		return nil, fmt.Errorf("starting %s: %w", name, err)
	}
	cleanup.mu.Lock()
	cleanup.procs[p] = struct{}{}
	cleanup.mu.Unlock()
	go func() {
		sc := bufio.NewScanner(stdout)
		sent := false
		for sc.Scan() {
			line := sc.Text()
			p.tail.Write([]byte(line + "\n"))
			if m := listenLine.FindStringSubmatch(line); m != nil && !sent {
				sent = true
				p.addr <- m[1]
			}
		}
		p.cmd.Wait()
		close(p.done)
	}()
	return p, nil
}

// listenAddr waits for the child to print its address.
func (p *proc) listenAddr(ctx context.Context) (string, error) {
	select {
	case a := <-p.addr:
		return a, nil
	case <-p.done:
		return "", fmt.Errorf("%s exited before listening:\n%s", p.name, p.tail.String())
	case <-ctx.Done():
		return "", fmt.Errorf("%s: no listen address: %w\n%s", p.name, ctx.Err(), p.tail.String())
	}
}

// kill stops the child's whole process group and waits until it has ended.
func (p *proc) kill() {
	p.once.Do(func() {
		syscall.Kill(-p.cmd.Process.Pid, syscall.SIGKILL)
		<-p.done
		cleanup.mu.Lock()
		delete(cleanup.procs, p)
		cleanup.mu.Unlock()
	})
}

// procUsage is a child's accumulated CPU time and peak resident set, read
// from /proc while the child is alive.
type procUsage struct {
	cpu     time.Duration
	peakRSS float64 // MB
}

func (p *proc) usage() procUsage {
	return readUsage(p.cmd.Process.Pid)
}

// readUsage parses utime+stime (fields 14 and 15 of /proc/PID/stat, in
// clock ticks) and VmHWM from /proc/PID/status.
func readUsage(pid int) procUsage {
	var u procUsage
	if data, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid)); err == nil {
		// The command name (field 2) may hold spaces; fields resume after
		// the closing parenthesis.
		if i := bytes.LastIndexByte(data, ')'); i >= 0 {
			f := strings.Fields(string(data[i+1:]))
			if len(f) > 12 {
				ut, _ := strconv.ParseInt(f[11], 10, 64)
				st, _ := strconv.ParseInt(f[12], 10, 64)
				const clockTick = 100 // USER_HZ on every Linux port Go supports
				u.cpu = time.Duration(ut+st) * time.Second / clockTick
			}
		}
	}
	if data, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid)); err == nil {
		for _, line := range strings.Split(string(data), "\n") {
			if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
				kb, _ := strconv.ParseFloat(strings.Fields(rest)[0], 64)
				u.peakRSS = kb / 1024
			}
		}
	}
	return u
}

// tailBuffer keeps the last max bytes written to it (a child's output,
// shown only when the child misbehaves).
type tailBuffer struct {
	mu  sync.Mutex
	max int
	buf []byte
}

func (t *tailBuffer) Write(b []byte) (int, error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.buf = append(t.buf, b...)
	if len(t.buf) > t.max {
		t.buf = t.buf[len(t.buf)-t.max:]
	}
	return len(b), nil
}

func (t *tailBuffer) String() string {
	t.mu.Lock()
	defer t.mu.Unlock()
	return string(t.buf)
}

// service is a running system under test: a single node, or a coordinator
// with its workers. procs[0] serves the client API.
type service struct {
	base     string
	procs    []*proc
	slots    int
	stateDir string // fleet only
	flags    [][]string
}

func (s *service) stop() {
	for _, p := range s.procs {
		p.kill()
	}
	if s.stateDir != "" {
		cleanup.removeDir(s.stateDir)
	}
}

// usage sums the children's CPU time and takes their summed peak RSS.
func (s *service) usage() procUsage {
	var u procUsage
	for _, p := range s.procs {
		pu := p.usage()
		u.cpu += pu.cpu
		u.peakRSS += pu.peakRSS
	}
	return u
}

// waitReady polls /readyz until it answers 200.
func waitReady(ctx context.Context, base string) error {
	for {
		req, _ := http.NewRequestWithContext(ctx, http.MethodGet, base+"/readyz", nil)
		resp, err := http.DefaultClient.Do(req)
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		select {
		case <-ctx.Done():
			return fmt.Errorf("%s/readyz never became ready: %w", base, ctx.Err())
		case <-time.After(2 * time.Millisecond):
		}
	}
}

// nodeSlots reads -workers from a node's flags (bayesd's default is 2).
func nodeSlots(flags []string) int {
	for i, f := range flags {
		if f == "-workers" && i+1 < len(flags) {
			if n, err := strconv.Atoi(flags[i+1]); err == nil {
				return n
			}
		}
	}
	return 2
}

// startService spawns the workload's system under test and waits until it
// is ready to take jobs: /readyz answers 200 and, for a fleet, both
// workers are registered. tmpRoot is where a fleet's state dir is made.
func startService(ctx context.Context, w workload, bayesd, tmpRoot string) (*service, error) {
	s := &service{}
	fail := func(err error) (*service, error) {
		s.stop()
		return nil, err
	}
	if w.Stack == stackNode {
		flags := append([]string{"-addr", "127.0.0.1:0"}, w.NodeFlags...)
		p, err := spawn("bayesd", bayesd, flags...)
		if err != nil {
			return nil, err
		}
		s.procs, s.flags, s.slots = []*proc{p}, [][]string{flags}, nodeSlots(w.NodeFlags)
		if s.base, err = p.listenAddr(ctx); err != nil {
			return fail(err)
		}
		if err := waitReady(ctx, s.base); err != nil {
			return fail(err)
		}
		return s, nil
	}

	if err := os.MkdirAll(tmpRoot, 0o755); err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp(tmpRoot, "state-")
	if err != nil {
		return nil, err
	}
	cleanup.addDir(dir)
	s.stateDir = dir
	cflags := []string{"-coordinator", "-addr", "127.0.0.1:0", "-state-dir", dir}
	co, err := spawn("coordinator", bayesd, cflags...)
	if err != nil {
		return fail(err)
	}
	s.procs, s.flags = []*proc{co}, [][]string{cflags}
	if s.base, err = co.listenAddr(ctx); err != nil {
		return fail(err)
	}
	for _, wk := range [][2]string{{"skylake-1", "Skylake"}, {"broadwell-1", "Broadwell"}} {
		wflags := []string{"-worker", s.base, "-node", wk[0], "-platform", wk[1], "-slots", "1", "-addr", "127.0.0.1:0"}
		p, err := spawn(wk[0], bayesd, wflags...)
		if err != nil {
			return fail(err)
		}
		s.procs, s.flags = append(s.procs, p), append(s.flags, wflags)
		s.slots++
	}
	if err := waitReady(ctx, s.base); err != nil {
		return fail(err)
	}
	c := newClient(s.base, 1)
	defer c.close()
	for {
		var workers []struct {
			Node string `json:"node"`
		}
		if err := c.getJSON(ctx, "/cluster/v1/workers", &workers); err == nil && len(workers) == s.slots {
			return s, nil
		}
		select {
		case <-ctx.Done():
			return fail(fmt.Errorf("workers never registered: %w\n%s", ctx.Err(), co.tail.String()))
		case <-time.After(2 * time.Millisecond):
		}
	}
}

// warm runs one warm-up job per slot, concurrently, and fails if any does
// not finish cleanly.
func (s *service) warm(ctx context.Context, w workload, seed uint64) error {
	c := newClient(s.base, s.slots)
	defer c.close()
	errs := make(chan error, s.slots)
	for slot := 0; slot < s.slots; slot++ {
		go func() {
			o := c.runJob(ctx, slot, w.warmupJob(seed, slot))
			gate(o)
			if o.Fail != "" {
				errs <- fmt.Errorf("warm-up job on slot %d: %s", slot, o.Fail)
				return
			}
			errs <- nil
		}()
	}
	var first error
	for slot := 0; slot < s.slots; slot++ {
		if err := <-errs; err != nil && first == nil {
			first = err
		}
	}
	return first
}

// buildBayesd compiles cmd/bayesd from the tree at root into outDir and
// reports how long the build took.
func buildBayesd(root, outDir string) (string, time.Duration, error) {
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return "", 0, err
	}
	bin := filepath.Join(outDir, "bayesd")
	start := time.Now()
	cmd := exec.Command("go", "build", "-o", bin, "./cmd/bayesd")
	cmd.Dir = root
	if out, err := cmd.CombinedOutput(); err != nil {
		return "", 0, fmt.Errorf("go build ./cmd/bayesd: %v\n%s", err, out)
	}
	return bin, time.Since(start), nil
}
