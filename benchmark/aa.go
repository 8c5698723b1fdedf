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
)

// quartiles returns the first, second and third quartile of xs the way
// Python's statistics.quantiles(xs, n=4) does (the exclusive method) — the
// driver's acceptance check uses that function.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	at := func(i int) float64 {
		j := i * (n + 1) / 4
		delta := i*(n+1) - j*4
		if j < 1 {
			j, delta = 1, 0
		}
		if j > n-1 {
			j, delta = n-1, 4
		}
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return at(1), at(2), at(3)
}

// runAA is the contract's acceptance check run locally: two sets of runs of
// the same code, each of n seeds per workload, every run its own process as
// under the driver. A metric passes when its spread over the seeds of each
// set — (Q3-Q1)/median — stays within its bound (setup_s excepted) and the
// second set's median is not worse than the first's by more than the bound.
// Counts that must be exact — failed operations — must be 0 in every run.
func runAA(n int, seconds float64, steerqd, scratch string) error {
	self, err := os.Executable()
	if err != nil {
		return fmt.Errorf("benchmark: own path: %w", err)
	}
	type key struct{ workload, metric string }
	var sets [2]map[key][]float64
	breaches := 0
	for set := range sets {
		sets[set] = map[key][]float64{}
		for _, w := range workloads() {
			for i := 0; i < n; i++ {
				seed := uint64(2021 + set*n + i)
				args := []string{"-workload", w.Name, "-seed", strconv.FormatUint(seed, 10), "-seconds", strconv.FormatFloat(seconds, 'g', -1, 64), "-steerqd", steerqd, "-scratch", scratch}
				out, err := exec.Command(self, args...).Output()
				if err != nil {
					return fmt.Errorf("benchmark: %s seed %d: %w", w.Name, seed, err)
				}
				var last []byte
				for sc := bufio.NewScanner(bytes.NewReader(out)); sc.Scan(); {
					last = append(last[:0], sc.Bytes()...)
				}
				var res wireResult
				if err := json.Unmarshal(last, &res); err != nil {
					return fmt.Errorf("benchmark: %s seed %d: last line: %w", w.Name, seed, err)
				}
				if !res.Correct || res.Failed != 0 {
					fmt.Printf("BREACH %s seed %d: %d of %d operations failed\n", w.Name, seed, res.Failed, res.Attempted)
					breaches++
				}
				for _, d := range endToEnd {
					k := key{w.Name, d.Name}
					sets[set][k] = append(sets[set][k], res.Metrics[d.Name].Value)
				}
				fmt.Fprintf(os.Stderr, "set %d %s seed %d done\n", set+1, w.Name, seed)
			}
		}
	}
	fmt.Printf("%-15s %-14s %12s %12s %8s %8s %8s %6s  %s\n", "workload", "metric", "median-1", "median-2", "spread-1", "spread-2", "drift", "bound", "verdict")
	for _, w := range workloads() {
		for _, d := range endToEnd {
			k := key{w.Name, d.Name}
			a1, m1, b1 := quartiles(sets[0][k])
			a2, m2, b2 := quartiles(sets[1][k])
			s1, s2 := ratio(b1-a1, m1), ratio(b2-a2, m2)
			drift := ratio(m2-m1, m1)
			if d.Better == higher {
				drift = -drift
			}
			verdict := "ok"
			if drift > d.Bound || (d.Name != "setup_s" && (s1 > d.Bound || s2 > d.Bound)) {
				verdict = "BREACH"
				breaches++
			} else if d.Name != "setup_s" && (s1 > d.Bound/3 || s2 > d.Bound/3) {
				verdict = "ok (spread above a third of the bound)"
			}
			fmt.Printf("%-15s %-14s %12.4f %12.4f %7.1f%% %7.1f%% %+7.1f%% %5.0f%%  %s\n", w.Name, d.Name, m1, m2, 100*s1, 100*s2, 100*drift, 100*d.Bound, verdict)
		}
	}
	if breaches > 0 {
		return fmt.Errorf("benchmark: %d breaches", breaches)
	}
	return nil
}
