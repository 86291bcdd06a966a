package main

import (
	"bufio"
	"fmt"
	"os"
	"os/exec"
	"runtime"
	"strings"
)

// Machine is the host fingerprint a report records next to its numbers,
// so -check can say when it compares ns/op taken on different hosts.
// Embedded in Report, its fields sit at the top level of the JSON file.
type Machine struct {
	GoVersion  string `json:"go_version"`
	CPU        string `json:"cpu,omitempty"`
	NProc      int    `json:"nproc,omitempty"`
	GOMAXPROCS int    `json:"gomaxprocs,omitempty"`
}

// thisMachine fingerprints the host benchreport runs on. The benchmarks
// run in a child `go test`, which inherits this process's environment and
// so its GOMAXPROCS.
func thisMachine() Machine {
	return Machine{
		GoVersion:  goVersion(),
		CPU:        cpuModel(),
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
	}
}

func (m Machine) String() string {
	if m.CPU == "" {
		return m.GoVersion + "; host not recorded"
	}
	return fmt.Sprintf("%s; %s; nproc %d; GOMAXPROCS %d", m.GoVersion, m.CPU, m.NProc, m.GOMAXPROCS)
}

// machineLines describes the baseline's and this host's fingerprints for
// -check, with a warning line when they differ. A mismatch changes no
// verdict: it tells the reader that the ns/op gates compare two hosts.
func machineLines(base, here Machine) []string {
	lines := []string{"baseline machine: " + base.String(), "this machine:     " + here.String()}
	if base != here {
		lines = append(lines, "machine fingerprints differ: ns/op gates compare different hosts (allocs/op stays exact)")
	}
	return lines
}

// cpuModel reads the first "model name" of /proc/cpuinfo ("unknown"
// where that file does not exist).
func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		k, v, ok := strings.Cut(sc.Text(), ":")
		if ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

func goVersion() string {
	out, err := exec.Command("go", "version").Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(out))
}
