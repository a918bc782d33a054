package main

import (
	"os"
	"runtime"
	"strconv"
	"strings"
	"syscall"
)

// cpuTimes is the aggregate "cpu" line of /proc/stat, in clock ticks.
type cpuTimes struct {
	busy, steal uint64
	ok          bool
}

// readCPUTimes reads the host's cumulative CPU accounting. Busy time is
// user + nice + system + irq + softirq + steal; idle and iowait are
// excluded. A host without /proc/stat reports ok=false.
func readCPUTimes() cpuTimes {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return cpuTimes{}
	}
	line, _, _ := strings.Cut(string(b), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return cpuTimes{}
	}
	var v [8]uint64
	for i := range v {
		if v[i], err = strconv.ParseUint(f[i+1], 10, 64); err != nil {
			return cpuTimes{}
		}
	}
	// user nice system idle iowait irq softirq steal
	return cpuTimes{busy: v[0] + v[1] + v[2] + v[5] + v[6] + v[7], steal: v[7], ok: true}
}

// stealShare is the host steal time as a share of busy time between two
// readings; -1 when it cannot be measured.
func stealShare(a, b cpuTimes) float64 {
	if !a.ok || !b.ok || b.busy <= a.busy {
		return -1
	}
	return float64(b.steal-a.steal) / float64(b.busy-a.busy)
}

// runValidity describes the conditions a run was measured under. It is
// recorded next to the result and never used to drop or rescale a run.
type runValidity struct {
	GoVersion  string     `json:"go_version"`
	GOMAXPROCS int        `json:"gomaxprocs"`
	NProc      int        `json:"nproc"`
	StealShare float64    `json:"steal_share"`
	LoadAvg    [3]float64 `json:"loadavg"`
	LateP50Ms  float64    `json:"loadgen_late_p50_ms"`
	LateMaxMs  float64    `json:"loadgen_late_max_ms"`
}

func newRunValidity(start, end cpuTimes, lateP50, lateMax float64) runValidity {
	v := runValidity{
		GoVersion:  runtime.Version(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		NProc:      runtime.NumCPU(),
		StealShare: stealShare(start, end),
		LateP50Ms:  lateP50,
		LateMaxMs:  lateMax,
	}
	var si syscall.Sysinfo_t
	if syscall.Sysinfo(&si) == nil {
		for i := range v.LoadAvg {
			v.LoadAvg[i] = float64(si.Loads[i]) / (1 << 16)
		}
	}
	return v
}
