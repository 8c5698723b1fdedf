// Package detbad seeds violations for the detcheck analyzer: wall-clock
// reads and map-iteration order escaping into observable output.
package detbad

import (
	"fmt"
	"io"
	"sort"
	"strings"
	"time"

	"steerq/internal/obs"
)

// WallClock reads the real clock three ways.
func WallClock() time.Duration {
	start := time.Now()                 // want "wall-clock read time.Now"
	tick := time.NewTicker(time.Second) // want "wall-clock read time.NewTicker"
	tick.Stop()
	return time.Since(start) // want "wall-clock read time.Since"
}

// AllowedWallClock is pragma-suppressed.
func AllowedWallClock() time.Time {
	return time.Now() // steerq:allow-wallclock — fixture suppression.
}

// SliceEscape appends map-range keys with no sort anywhere after the loop.
func SliceEscape(m map[string]int) []string {
	var out []string
	for k := range m {
		out = append(out, k) // want "escapes into a slice"
	}
	return out
}

// CollectThenSort is the canonical suppressed idiom: a sort follows the loop.
func CollectThenSort(m map[string]int) []string {
	var out []string
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// StringEscape concatenates map-range values into an outer string.
func StringEscape(m map[string]string) string {
	s := ""
	for _, v := range m {
		s += v // want "escapes into a string"
	}
	return s
}

// ReturnEscape returns a range variable straight out of the loop.
func ReturnEscape(m map[string]int) string {
	for k := range m {
		return k // want "escapes into a return"
	}
	return ""
}

// LabelEscape feeds a map-range key into a metric label.
func LabelEscape(reg *obs.Registry, m map[string]int) {
	for k, v := range m {
		reg.Counter("detbad_total", "kind", k).Add(uint64(v)) // want "escapes into a label"
	}
}

// ComparatorReturn exercises the closure exemption: the return inside the
// sort.Slice comparator is not a return of ComparatorReturn.
func ComparatorReturn(m map[string][]int) {
	for _, vs := range m {
		sort.Slice(vs, func(i, j int) bool { return vs[i] < vs[j] })
	}
}

// WriteEscape prints map-range entries in visit order, three ways.
func WriteEscape(w io.Writer, m map[string][]int) string {
	var sb strings.Builder
	for k, v := range m {
		fmt.Printf("%s:\n", k)   // want "escapes into a write"
		fmt.Fprintln(w, len(v))  // want "escapes into a write"
		sb.WriteString(k + "\n") // want "escapes into a write"
		var line strings.Builder // a builder local to one visit escapes nothing
		line.WriteString(k)
		_ = line.Len()
	}
	return sb.String()
}

// WriteToEachWriter fans a line out to every writer of a map: each writer's
// bytes are the same whatever the visit order.
func WriteToEachWriter(ws map[string]io.Writer) {
	for _, w := range ws {
		fmt.Fprintln(w, "ready")
	}
}
