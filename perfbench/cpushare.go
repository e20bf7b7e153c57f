package main

import (
	"bufio"
	"bytes"
	"fmt"
	"os/exec"
	"strings"
	"time"
)

// cpuModules are the buckets the traced run's CPU profile is charged to:
// the repository's modules (internal/<module>), go-runtime for samples
// with no repository frame, and bench-driver for samples whose only
// repository frames are the benchmark's own.
var cpuModules = []string{
	"ncl", "core", "controller", "runtime", "ncp", "netsim", "pisa", "telemetry", "obs", "other",
	"go-runtime", "bench-driver",
}

const internalPrefix = "ncl/internal/"

// moduleOf maps a frame's function name to its module, or "" when the
// frame is not repository code. The host _in_ interpreter
// (internal/ncl/interp) is charged to runtime, which executes it.
func moduleOf(fn string) string {
	if strings.HasPrefix(fn, "main.") {
		return "bench-driver"
	}
	rest, ok := strings.CutPrefix(fn, internalPrefix)
	if !ok {
		return ""
	}
	if strings.HasPrefix(rest, "ncl/interp.") {
		return "runtime"
	}
	mod := rest
	if i := strings.IndexAny(mod, "/."); i >= 0 {
		mod = mod[:i]
	}
	for _, m := range cpuModules {
		if m == mod {
			return m
		}
	}
	return "other"
}

// cpuShares charges every sample of a CPU profile to the innermost
// repository frame's module and returns each module's percentage of the
// profiled CPU time, and that time. It reads the profile through
// `go tool pprof -traces`, which prints each distinct stack, leaf first,
// under the CPU time sampled in it.
func cpuShares(profile string) (map[string]float64, time.Duration, error) {
	out, err := exec.Command("go", "tool", "pprof", "-traces", profile).Output()
	if err != nil {
		return nil, 0, fmt.Errorf("go tool pprof: %w", err)
	}
	charged := map[string]time.Duration{}
	var (
		total, cur time.Duration
		module     string
		driver     bool
	)
	flush := func() {
		switch {
		case cur == 0:
		case module != "":
			charged[module] += cur
		case driver:
			charged["bench-driver"] += cur
		default:
			charged["go-runtime"] += cur
		}
		total += cur
		cur, module, driver = 0, "", false
	}
	sc := bufio.NewScanner(bytes.NewReader(out))
	for sc.Scan() {
		line := sc.Text()
		if strings.HasPrefix(line, "-----") {
			flush()
			continue
		}
		f := strings.Fields(line)
		if !strings.HasPrefix(line, " ") || len(f) == 0 {
			continue // report header
		}
		frame := f[0]
		if d, err := time.ParseDuration(f[0]); err == nil && len(f) > 1 {
			flush()
			cur, frame = d, f[1]
		}
		switch m := moduleOf(frame); {
		case m == "bench-driver":
			driver = true
		case m != "" && module == "":
			module = m
		}
	}
	flush()
	if total == 0 {
		return nil, 0, fmt.Errorf("profile %s holds no samples", profile)
	}
	shares := map[string]float64{}
	for _, m := range cpuModules {
		shares[m] = 100 * float64(charged[m]) / float64(total)
	}
	return shares, total, nil
}
