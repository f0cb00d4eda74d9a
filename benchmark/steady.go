package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"sort"
	"strconv"
	"time"
)

// runSteady runs one workload n times, each in its own child process
// with its own seed (seed, seed+1, ...), and prints for every metric the
// median, the quartiles, the extremes and the quartile spread as a share
// of the median — the figure BENCHMARK.json's bounds are set from, since
// a regression check compares runs on different seeds too. With
// fixedSeed every run uses seed, so the spread is run-to-run noise
// alone. The share of failed operations must be the same in every run.
func runSteady(workload string, seed int64, fixedSeed bool, seconds, trace, n int) error {
	exe, err := os.Executable()
	if err != nil {
		return err
	}
	values := map[string][]float64{}
	var order []string
	failShare := ""
	for i := 0; i < n; i++ {
		s := seed
		if !fixedSeed {
			s += int64(i)
		}
		cmd := exec.Command(exe, "--workload", workload, "--seed", strconv.FormatInt(s, 10),
			"--seconds", strconv.Itoa(seconds), "--trace", strconv.Itoa(trace))
		cmd.Stderr = os.Stderr
		t0 := time.Now()
		out, err := cmd.Output()
		wall := time.Since(t0)
		if err != nil {
			return fmt.Errorf("seed %d: %w", s, err)
		}
		var res result
		if err := json.Unmarshal(lastLine(out), &res); err != nil {
			return fmt.Errorf("seed %d: parse result: %w", s, err)
		}
		if !res.Correct {
			return fmt.Errorf("seed %d: outputs incorrect", s)
		}
		share := strconv.FormatFloat(float64(res.Failed)/float64(res.Attempted), 'g', -1, 64)
		if i > 0 && share != failShare {
			return fmt.Errorf("seed %d: failed share %s differs from %s", s, share, failShare)
		}
		failShare = share
		fmt.Fprintf(os.Stderr, "steady: seed %d attempted %d failed %d in %.1fs\n", s, res.Attempted, res.Failed, wall.Seconds())
		for name, v := range res.Metrics {
			if _, ok := values[name]; !ok {
				order = append(order, name)
			}
			values[name] = append(values[name], v.Value)
		}
	}
	sort.Strings(order)
	fmt.Printf("%-28s %12s %12s %12s %12s %12s %8s\n", "metric", "median", "q1", "q3", "min", "max", "spread")
	for _, name := range order {
		v := append([]float64(nil), values[name]...)
		sort.Float64s(v)
		q := quartiles(v)
		spread := 0.0
		if q[1] != 0 {
			spread = (q[2] - q[0]) / q[1]
		}
		fmt.Printf("%-28s %12.6g %12.6g %12.6g %12.6g %12.6g %8.4f\n", name, q[1], q[0], q[2], v[0], v[len(v)-1], spread)
	}
	fmt.Printf("failed share %s over %d runs\n", failShare, n)
	return nil
}

// quartiles returns the three cut points of sorted data by the
// exclusive method, as Python's statistics.quantiles(data, n=4) does.
func quartiles(data []float64) [3]float64 {
	var out [3]float64
	ld := len(data)
	if ld == 1 {
		return [3]float64{data[0], data[0], data[0]}
	}
	m := ld + 1
	for i := 1; i <= 3; i++ {
		j := i * m / 4
		j = max(1, min(j, ld-1))
		delta := i*m - j*4
		out[i-1] = (data[j-1]*float64(4-delta) + data[j]*float64(delta)) / 4
	}
	return out
}

// lastLine returns the last non-empty line of out.
func lastLine(out []byte) []byte {
	var last []byte
	sc := bufio.NewScanner(bytes.NewReader(out))
	sc.Buffer(make([]byte, 1<<20), 1<<24)
	for sc.Scan() {
		if l := bytes.TrimSpace(sc.Bytes()); len(l) > 0 {
			last = append(last[:0], l...)
		}
	}
	return last
}
