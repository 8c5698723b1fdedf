package cost

import (
	"math"

	"steerq/internal/catalog"
	"steerq/internal/plan"
)

// OpUsage is the resource usage of one physical operator instance.
//
// CPUSeconds and IOBytes are totals summed over all parallel vertices; they
// feed the CPU-time and I/O-time metrics of §3.1.2. LatencySeconds is the
// operator's critical-path contribution given its degree of parallelism and
// feeds the runtime metric.
type OpUsage struct {
	CPUSeconds     float64
	IOBytes        float64
	LatencySeconds float64
}

// OpCostParams carries everything needed to cost one physical operator.
type OpCostParams struct {
	Op       plan.PhysOp
	Exchange plan.ExchangeKind

	// InRows/InBytes total over all inputs; OutRows of the output.
	InRows, InBytes float64
	OutRows         float64

	// BuildRows/ProbeRows for join operators.
	BuildRows, ProbeRows float64

	// DOP is the operator's degree of parallelism (>= 1).
	DOP int

	// UDO for Process/Reduce implementations.
	UDO *catalog.UDO

	// TopN for top operators.
	TopN int
}

// The cost rates. Cost converts operator work into seconds of CPU, bytes of
// I/O and critical-path latency at these rates, both for the optimizer's
// estimated plan costs (fed with estimated Props) and for the executor's
// true resource usage (fed with true Props), so estimation error comes only
// from cardinalities and DOP — mirroring SCOPE, where the cost formulas are
// "tuned over the years" (§3.1) but the inputs betray them.
const (
	rowsPerCPUSecond  float64 = 1e6       // relational work throughput per vertex
	BytesPerIOSecond  float64 = 100e6     // sequential I/O throughput per vertex
	vertexStartup     float64 = 0.4       // seconds of scheduling overhead per vertex wave
	shuffleBytesCost  float64 = 2.0       // multiplier on shuffled bytes (write+read)
	broadcastPenalty  float64 = 1.0       // per-consumer replication multiplier
	loopJoinRowFactor float64 = 1.0 / 2e8 // cost per (probe row x build row) pair
)

// cpuRows converts row-operations into CPU seconds.
func cpuRows(rowOps float64) float64 { return rowOps / rowsPerCPUSecond }

// Cost returns the usage of one operator.
func Cost(p OpCostParams) OpUsage {
	dop := float64(p.DOP)
	if dop < 1 {
		dop = 1
	}
	var cpu, io float64 // totals
	serial := false     // operator runs on a single vertex regardless of DOP

	switch p.Op {
	case plan.PhysExtract, plan.PhysRangeScan:
		// Scans read the whole stream (InBytes) regardless of how
		// selective an embedded range predicate is; only downstream
		// operators see the filtered OutRows.
		io = p.InBytes
		cpu = cpuRows(p.InRows*0.5 + p.OutRows*0.2)
	case plan.PhysFilter:
		cpu = cpuRows(p.InRows * 1.0)
	case plan.PhysCompute:
		cpu = cpuRows(p.InRows * 0.7)
	case plan.PhysHashJoin, plan.PhysHashJoinAlt:
		cpu = cpuRows(p.BuildRows*3.0 + p.ProbeRows*1.2 + p.OutRows*0.3)
	case plan.PhysMergeJoin:
		cpu = cpuRows(p.InRows*1.0 + p.OutRows*0.3)
	case plan.PhysLoopJoin:
		// Each probe partition scans its build copy per row: quadratic.
		pairs := p.ProbeRows * p.BuildRows
		cpu = cpuRows(p.ProbeRows+p.BuildRows) + pairs*loopJoinRowFactor
	case plan.PhysHashAgg, plan.PhysFinalHashAgg:
		cpu = cpuRows(p.InRows * 2.2)
	case plan.PhysPartialHashAgg:
		cpu = cpuRows(p.InRows * 1.6)
	case plan.PhysStreamAgg:
		cpu = cpuRows(p.InRows * 0.8)
	case plan.PhysSort:
		n := math.Max(p.InRows, 2)
		cpu = cpuRows(p.InRows * math.Log2(n) * 0.25)
	case plan.PhysUnionMerge:
		cpu = cpuRows(p.InRows * 0.3)
		io = p.InBytes * 0.5
	case plan.PhysVirtualDataset:
		// Consumers read branch outputs in place: no movement, trivial CPU,
		// but downstream parallelism is pinned to the branch layout (the
		// executor models that through the DOP of this node).
		cpu = cpuRows(p.InRows * 0.02)
	case plan.PhysProcessImpl:
		w := 1.0
		if p.UDO != nil {
			w = p.UDO.CPUPerRow
		}
		cpu = cpuRows(p.InRows * w * 4.0)
	case plan.PhysReduceImpl:
		w := 1.0
		if p.UDO != nil {
			w = p.UDO.CPUPerRow
		}
		cpu = cpuRows(p.InRows * w * 5.0)
	case plan.PhysLocalTop:
		n := math.Max(float64(p.TopN), 2)
		cpu = cpuRows(p.InRows * math.Log2(n) * 0.2)
	case plan.PhysGlobalTop:
		cpu = cpuRows(p.InRows * 0.5)
		serial = true
	case plan.PhysExchange:
		switch p.Exchange {
		case plan.ExchangeShuffle:
			io = p.InBytes * shuffleBytesCost
			cpu = cpuRows(p.InRows * 0.6)
		case plan.ExchangeBroadcast:
			io = p.InBytes * dop * broadcastPenalty
			cpu = cpuRows(p.InRows * 0.3 * dop)
		case plan.ExchangeGather:
			io = p.InBytes
			cpu = cpuRows(p.InRows * 0.3)
			serial = true
		case plan.ExchangeInitial:
			// Initial partitioned layout: costless, the scan pays.
		}
	case plan.PhysOutputImpl:
		io = p.InBytes
		cpu = cpuRows(p.InRows * 0.3)
	case plan.PhysMultiImpl:
		// Virtual root.
	}

	u := OpUsage{CPUSeconds: cpu, IOBytes: io}
	par := dop
	if serial {
		par = 1
	}
	u.LatencySeconds = cpu/par + io/(BytesPerIOSecond*par)
	if cpu > 0 || io > 0 {
		u.LatencySeconds += vertexStartup * math.Sqrt(par) / 8
	}
	return u
}

// ChooseDOP is the optimizer's degree-of-parallelism heuristic: partitions
// sized to ~256 MB of data, clamped to [1, maxDOP]. Because it runs on
// *estimated* bytes, different rule configurations — which change estimates —
// select different degrees of parallelism for the same data (§5.3,
// "Degree of Parallelism").
func ChooseDOP(rows, rowBytes float64, maxDOP int) int {
	const partitionBytes = 256e6
	bytes := rows * math.Max(rowBytes, 1)
	d := int(math.Ceil(bytes / partitionBytes))
	if d < 1 {
		d = 1
	}
	if d > maxDOP {
		d = maxDOP
	}
	return d
}
