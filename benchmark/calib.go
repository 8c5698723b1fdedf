package main

import (
	"slices"
	"sync"
	"sync/atomic"
	"time"
)

// The box this benchmark runs on is shared: the same work swings +-15% in
// wall and in CPU time over tens of seconds as neighbours contend for cache
// and memory, which is more than any bound worth gating on. So every
// end-to-end timing is divided by the box's speed at that moment, measured
// by a reference kernel run between the units of work: fixed work, standard
// library only — no line of it changes with the repository — mixing random
// read-modify-writes over 4 MB with sorting, which tracked the discovery
// pass's own slowdowns to ~3% where the raw time moved ~10% (README.md,
// "Calibration"). A value is therefore in seconds of the sizing box at rest.

// kernelRef is the single-goroutine kernel's median duration on the sizing
// box at rest. It only sets the scale: on that box normalised and raw values
// agree.
const kernelRef = 25 * time.Millisecond

// kernelBuf is one goroutine's working set; kernelSink keeps the work live.
type kernelBuf struct {
	table [1 << 19]uint64
	keys  [1 << 15]uint64
}

var kernelSink atomic.Uint64

func (b *kernelBuf) run() {
	x := uint64(1)
	for i := 0; i < 2_000_000; i++ {
		x = x*6364136223846793005 + 1442695040888963407
		b.table[x>>45] += x
	}
	for r := 0; r < 8; r++ {
		for i := range b.keys {
			x = x*6364136223846793005 + 1442695040888963407
			b.keys[i] = x
		}
		slices.Sort(b.keys[:])
	}
	kernelSink.Add(b.table[0] + b.keys[0])
}

// speedometer brackets units of work with kernel runs. The kernel runs on
// as many goroutines at once as the workload keeps busy, so a neighbour
// leaning on one of two cores slows the kernel as it slows the workload.
type speedometer struct {
	bufs     []kernelBuf
	prev     time.Duration
	kernelMs []float64
}

func newSpeedometer(threads int) *speedometer {
	s := &speedometer{bufs: make([]kernelBuf, threads)}
	s.prev = s.kernel()
	return s
}

// kernel runs the reference work once on every goroutine and returns how
// long the slowest took.
func (s *speedometer) kernel() time.Duration {
	t0 := now()
	var wg sync.WaitGroup
	for i := range s.bufs[1:] {
		wg.Add(1)
		go func(b *kernelBuf) {
			defer wg.Done()
			b.run()
		}(&s.bufs[i+1])
	}
	s.bufs[0].run()
	wg.Wait()
	d := now().Sub(t0)
	s.kernelMs = append(s.kernelMs, ms(d))
	return d
}

// factor runs the kernel and returns the box's speed over the unit of work
// since the previous kernel run, relative to the sizing box at rest: the
// mean of the two bracketing runs against kernelRef. A time measured in
// that interval times the factor, or a rate divided by it, is normalised.
func (s *speedometer) factor() float64 {
	k := s.kernel()
	f := float64(kernelRef) / (float64(s.prev+k) / 2)
	s.prev = k
	return f
}
