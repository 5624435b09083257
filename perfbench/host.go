package main

import (
	"bufio"
	"os"
	"runtime"
	"strconv"
	"strings"
	"syscall"

	"repro/internal/codelet"
	"repro/wht"
)

// hostInfo is the fingerprint every run prints before its result.
type hostInfo struct {
	CPU        string  `json:"cpu"`
	NProc      int     `json:"nproc"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	Backend    string  `json:"backend"`
	ISA        string  `json:"isa"`
	Go         string  `json:"go"`
	StealShare float64 `json:"steal_share"`
}

func fingerprint(steal float64) hostInfo {
	h := hostInfo{
		CPU: "unknown", NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		Backend: codelet.Resolve(codelet.AutoBackend).String(), ISA: wht.ISAFeatures(),
		Go: runtime.Version(), StealShare: steal,
	}
	if f, err := os.Open("/proc/cpuinfo"); err == nil {
		defer f.Close()
		sc := bufio.NewScanner(f)
		for sc.Scan() {
			if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
				h.CPU = strings.TrimSpace(v)
				break
			}
		}
	}
	return h
}

// stealMeter measures the share of CPU time the hypervisor stole over an
// interval, from the aggregate line of /proc/stat.
type stealMeter struct{ steal, total uint64 }

func readStat() (steal, total uint64) {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0
	}
	line, _, _ := strings.Cut(string(b), "\n")
	f := strings.Fields(line)
	for i := 1; i < len(f); i++ {
		v, _ := strconv.ParseUint(f[i], 10, 64)
		if i <= 8 { // user nice system idle iowait irq softirq steal; guest time is already in user
			total += v
		}
		if i == 8 {
			steal = v
		}
	}
	return steal, total
}

func startSteal() stealMeter {
	s, t := readStat()
	return stealMeter{s, t}
}

func (m stealMeter) share() float64 {
	s, t := readStat()
	if t <= m.total {
		return 0
	}
	return float64(s-m.steal) / float64(t-m.total)
}

// peakRSSMiB is the process's peak resident set size.
func peakRSSMiB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024
}
