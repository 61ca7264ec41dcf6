package main

import (
	"math"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"syscall"
	"time"
)

// envBlock is the machine and run manifest every result file carries.
// Numbers from different env blocks are not comparable without reading it.
type envBlock struct {
	NProc      int     `json:"nproc"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	GoVersion  string  `json:"go_version"`
	CPUModel   string  `json:"cpu_model"`
	Kernel     string  `json:"kernel"`
	GitCommit  string  `json:"git_commit"`
	Seed       uint64  `json:"seed"`
	WindowS    float64 `json:"window_s"`
	Quick      bool    `json:"quick,omitempty"`
	// StateDirTmpfs says whether the fleet's state dir sits on tmpfs: it
	// decides what journal.append_us_* means (an fsync to RAM is not an
	// fsync to a disk).
	StateDir      string `json:"state_dir"`
	StateDirTmpfs bool   `json:"state_dir_tmpfs"`
	// BayesdFlags are the exact daemon command lines per workload (ports
	// and state dirs as generated).
	BayesdFlags map[string][][]string `json:"bayesd_flags,omitempty"`
}

func collectEnv(opt runOptions, quick bool) envBlock {
	e := envBlock{
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		CPUModel:   cpuModel(),
		Kernel:     firstLine("/proc/sys/kernel/osrelease"),
		GitCommit:  gitCommit(opt.root),
		Seed:       opt.seed,
		WindowS:    opt.window.Seconds(),
		Quick:      quick,
		StateDir:   opt.tmpRoot,
	}
	e.StateDirTmpfs = onTmpfs(opt.tmpRoot)
	return e
}

func firstLine(path string) string {
	data, err := os.ReadFile(path)
	if err != nil {
		return "unknown"
	}
	line, _, _ := strings.Cut(string(data), "\n")
	return strings.TrimSpace(line)
}

func cpuModel() string {
	data, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(data), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// gitCommit reads HEAD without running git: the acceptance driver's
// checkout is not a repository, and then the answer is "unknown".
func gitCommit(root string) string {
	head := firstLine(filepath.Join(root, ".git", "HEAD"))
	if ref, ok := strings.CutPrefix(head, "ref: "); ok {
		if c := firstLine(filepath.Join(root, ".git", ref)); c != "unknown" {
			return c
		}
		if packed, err := os.ReadFile(filepath.Join(root, ".git", "packed-refs")); err == nil {
			for _, line := range strings.Split(string(packed), "\n") {
				if c, r, ok := strings.Cut(line, " "); ok && r == ref {
					return c
				}
			}
		}
		return "unknown"
	}
	return head
}

// onTmpfs reports whether dir (or its nearest existing ancestor) is on a
// tmpfs mount.
func onTmpfs(dir string) bool {
	const tmpfsMagic = 0x01021994
	for {
		var st syscall.Statfs_t
		if err := syscall.Statfs(dir, &st); err == nil {
			return st.Type == tmpfsMagic
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return false
		}
		dir = parent
	}
}

// calibSink keeps the calibration loop's result alive.
var calibSink float64

// boxCalib times a fixed chain of dependent floating-point operations and
// returns nanoseconds per step: the smallest of three readings. It says how
// fast the box is at this moment, whatever the system under test does, so
// that a run that reads 30 % slow can be told from a box that was 30 % slow
// (README, Hazards).
func boxCalib() float64 {
	const steps = 10_000_000
	best := math.Inf(1)
	for rep := 0; rep < 3; rep++ {
		acc := 0.0
		start := time.Now()
		for i := 0; i < steps; i++ {
			acc = acc*1.0000001 + 1e-9
		}
		best = math.Min(best, float64(time.Since(start))/steps)
		calibSink = acc
	}
	return best
}
