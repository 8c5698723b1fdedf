package cost

import (
	"testing"
	"testing/quick"

	"steerq/internal/catalog"
	"steerq/internal/plan"
)

func TestChooseDOPBounds(t *testing.T) {
	f := func(rows, bytes float64) bool {
		if rows < 0 {
			rows = -rows
		}
		if bytes < 0 {
			bytes = -bytes
		}
		d := ChooseDOP(rows, bytes, 50)
		return d >= 1 && d <= 50
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestChooseDOPMonotonic(t *testing.T) {
	if ChooseDOP(1e9, 100, 50) < ChooseDOP(1e6, 100, 50) {
		t.Fatal("DOP not monotone in data size")
	}
	if ChooseDOP(1, 1, 50) != 1 {
		t.Fatal("tiny input should get DOP 1")
	}
	if ChooseDOP(1e12, 1000, 50) != 50 {
		t.Fatal("huge input should hit the cap")
	}
}

func TestLoopJoinQuadratic(t *testing.T) {
	small := Cost(OpCostParams{Op: plan.PhysLoopJoin, ProbeRows: 1e6, BuildRows: 100, DOP: 10})
	big := Cost(OpCostParams{Op: plan.PhysLoopJoin, ProbeRows: 1e6, BuildRows: 1e5, DOP: 10})
	if big.LatencySeconds < 100*small.LatencySeconds {
		t.Fatalf("loop join not superlinear in build size: %v vs %v", small.LatencySeconds, big.LatencySeconds)
	}
}

func TestBroadcastScalesWithConsumers(t *testing.T) {
	p := OpCostParams{Op: plan.PhysExchange, Exchange: plan.ExchangeBroadcast, InRows: 1e6, InBytes: 1e8}
	p.DOP = 2
	low := Cost(p)
	p.DOP = 40
	high := Cost(p)
	if high.IOBytes <= low.IOBytes {
		t.Fatal("broadcast IO does not scale with consumer count")
	}
}

func TestGatherSerial(t *testing.T) {
	p := OpCostParams{Op: plan.PhysExchange, Exchange: plan.ExchangeGather, InRows: 1e7, InBytes: 1e9, DOP: 50}
	u := Cost(p)
	// A serial gather of 1e9 bytes at 100 MB/s takes ~10s regardless of DOP.
	if u.LatencySeconds < 5 {
		t.Fatalf("gather latency %v ignores its serial nature", u.LatencySeconds)
	}
}

func TestHigherDOPLowersLatency(t *testing.T) {
	p := OpCostParams{Op: plan.PhysFilter, InRows: 1e8}
	p.DOP = 1
	slow := Cost(p)
	p.DOP = 50
	fast := Cost(p)
	if fast.LatencySeconds >= slow.LatencySeconds {
		t.Fatalf("parallelism does not reduce latency: %v vs %v", slow.LatencySeconds, fast.LatencySeconds)
	}
	if fast.CPUSeconds != slow.CPUSeconds {
		t.Fatal("total CPU should be DOP-independent for filters")
	}
}

func TestUDOWeightsCPU(t *testing.T) {
	light := Cost(OpCostParams{Op: plan.PhysProcessImpl, InRows: 1e6, DOP: 4, UDO: &catalog.UDO{CPUPerRow: 1}})
	heavy := Cost(OpCostParams{Op: plan.PhysProcessImpl, InRows: 1e6, DOP: 4, UDO: &catalog.UDO{CPUPerRow: 8}})
	if heavy.CPUSeconds <= light.CPUSeconds {
		t.Fatal("UDO CPU weight ignored")
	}
}

func TestScanUsesInputBytes(t *testing.T) {
	u := Cost(OpCostParams{Op: plan.PhysRangeScan, InRows: 1e8, InBytes: 1e10, OutRows: 10, DOP: 40})
	// A selective range scan still reads the full 10 GB.
	if u.IOBytes != 1e10 {
		t.Fatalf("scan IO %v, want full input", u.IOBytes)
	}
}

func TestVirtualDatasetCheaperThanMerge(t *testing.T) {
	p := OpCostParams{InRows: 1e7, InBytes: 1e9, OutRows: 1e7, DOP: 20}
	p.Op = plan.PhysUnionMerge
	merge := Cost(p)
	p.Op = plan.PhysVirtualDataset
	virtual := Cost(p)
	if virtual.LatencySeconds >= merge.LatencySeconds {
		t.Fatal("virtual dataset should be locally cheaper than a materializing union")
	}
}
