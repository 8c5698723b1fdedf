package cascades

import (
	"fmt"
	"strings"

	"steerq/internal/bitvec"
	"steerq/internal/cost"
	"steerq/internal/plan"
)

// pexpr is a costed physical sub-plan candidate. Children are fully resolved
// pexprs (the winners chosen for the child groups under this candidate's
// requirements), so extraction is a simple walk.
type pexpr struct {
	op       plan.PhysOp
	node     *plan.Node // payload
	children []*pexpr
	lexpr    *MExpr // implemented logical expression (nil for enforcers)
	ruleID   int
	outDist  plan.Distribution
	dop      int
	// props are the candidate's own estimated statistics, derived from its
	// expression tree (not the group's canonical statistics) — see
	// Memo.DerivePropsFrom.
	props    cost.Props
	rows     float64
	rowBytes float64
	usage    cost.OpUsage // local usage
	total    float64      // cumulative estimated latency cost
	exchange plan.ExchangeKind
	buildIdx int

	// mark and built are the visit marks of the signature or extract walk
	// that ends a compile. A pexpr is shared wherever its group's winner is
	// reused — within a compile and across the session's compiles — so each
	// walk stamps its own epoch (searchScratch.epoch) instead of clearing the
	// last walk's marks.
	mark  uint32
	built *plan.PhysNode
}

// winner is the cached best plan of a group for one requirement.
type winner = pexpr

// groupSearch is the physical-search state of one memo group under one class
// of configurations: its costed candidates and its winner per requirement.
// The session files it per memo and GroupID (Session.Optimize), never on the
// Group, which a frozen memo shares read-only. foot is the exact set of
// configuration bits its enumeration read — its own implementation rules'
// and, through every child it visited, the children's feet — and proj is
// cfg ∧ foot under the compile that enumerated it. A later compile with
// cfg ∧ foot == proj reads the same bits, takes the same branches and builds
// the same candidates, so it reuses the state as is (DESIGN.md, "Two phases,
// two key sets").
type groupSearch struct {
	foot, proj bitvec.Vector
	// winners holds the best plan found per required distribution, one
	// arena-carved node per requirement. A group sees a handful of distinct
	// requirements, so a scan beats hashing.
	winners *groupWinner
	// candidates are the group's costed implementation alternatives once
	// enumerated is set.
	candidates []*pexpr
	enumerated bool
	// next is the state filed after this one for the same group.
	next *groupSearch
}

type groupWinner struct {
	dist distKey
	w    *winner
	next *groupWinner
}

// implAlt is what one implementation rule returned for one expression.
type implAlt struct {
	protos []*PhysProto
	done   bool
}

// distKey is a small comparable form of a distribution requirement, used as
// the winner-cache key so probing the cache never builds a string. The common
// case (at most four hash keys, everything int32-sized) packs into 40 bytes;
// anything wider (absent from the workloads, but kept exact for safety)
// spills the whole requirement into an injectively encoded string, and the
// two shapes can never collide because extra is non-empty exactly on the
// spill path.
type distKey struct {
	kind  uint8
	nkeys uint8
	dop   int32
	keys  [4]int32
	extra string
}

func makeDistKey(d plan.Distribution) distKey {
	fits := int(d.Kind) >= 0 && int(d.Kind) <= 255 &&
		len(d.Keys) <= 4 &&
		int64(d.DOP) == int64(int32(d.DOP))
	if fits {
		for _, id := range d.Keys {
			if int64(id) != int64(int32(id)) {
				fits = false
				break
			}
		}
	}
	if fits {
		k := distKey{kind: uint8(d.Kind), nkeys: uint8(len(d.Keys)), dop: int32(d.DOP)}
		for i, id := range d.Keys {
			k.keys[i] = int32(id)
		}
		return k
	}
	var b strings.Builder
	fmt.Fprintf(&b, "%d|%d|", d.Kind, d.DOP)
	for _, id := range d.Keys {
		fmt.Fprintf(&b, "%d,", id)
	}
	return distKey{extra: b.String()}
}

// newPexpr returns a zeroed candidate carved from the arena's physical side,
// which outlives every pexpr pointer the search hands out.
func (s *search) newPexpr() *pexpr { return s.scratch.pexprs.one(pexprChunkLen) }

// childSlice carves an n-element pexpr slice: a candidate's children, before
// any recursive optimizeGroup call fills them, or a group's candidates.
func (s *search) childSlice(n int) []*pexpr { return s.scratch.children.take(n, childChunkLen) }

func (s *search) oneChild(p *pexpr) []*pexpr {
	c := s.childSlice(1)
	c[0] = p
	return c
}

// placeholderNode carves an enforcer payload placeholder (an OpSelect node
// carrying only a schema) from the arena. Like every arena node it never
// escapes the session: extraction copies its (empty) payload slice headers,
// never the struct.
func (s *search) placeholderNode(schema []plan.Column) *plan.Node {
	n := s.scratch.enforcers.one(nodeChunkLen)
	n.Op = plan.OpSelect
	n.Schema = schema
	return n
}

// state returns g's physical state for this compile: the one it already
// resolved to, else the first the session filed whose foot this compile's
// configuration projects onto its proj, else a new, empty one filed after
// the others.
func (s *search) state(g *Group) *groupSearch {
	if gs := s.cur[g.ID]; gs != nil {
		return gs
	}
	slot := &s.filed[g.ID]
	for gs := *slot; gs != nil; gs = gs.next {
		if s.cfg.And(gs.foot).Equal(gs.proj) {
			s.cur[g.ID] = gs
			return gs
		}
		slot = &gs.next
	}
	gs := s.scratch.states.one(stateChunkLen)
	*slot = gs
	s.cur[g.ID] = gs
	return gs
}

// optimizeGroup returns the cheapest physical plan for g delivering a
// distribution satisfying req, or nil when none exists, together with the
// state of g it came from, whose foot is complete by then.
func (s *search) optimizeGroup(g *Group, req plan.Distribution) (*winner, *groupSearch) {
	gs := s.state(g)
	key := makeDistKey(req)
	for gw := gs.winners; gw != nil; gw = gw.next {
		if gw.dist == key {
			return gw.w, gs
		}
	}
	// Mark in-progress (a nil winner) to make accidental cycles fail loudly
	// rather than recurse forever (logical DAGs are acyclic, so this never
	// triggers on well-formed input). A winner reads no configuration bit —
	// only the candidates and enforce — so one found for a new requirement
	// belongs to the state like the candidates do.
	gw := s.scratch.winners.one(winnerChunkLen)
	gw.dist, gw.next = key, gs.winners
	gs.winners = gw

	var best *pexpr
	consider := func(p *pexpr) {
		if p == nil {
			return
		}
		if best == nil || p.total < best.total {
			best = p
		}
	}
	for _, cand := range s.groupCandidates(gs, g) {
		if cand.outDist.Satisfies(req) {
			consider(cand)
		} else {
			consider(s.enforce(cand, req))
		}
	}
	gw.w = best
	return best, gs
}

// groupCandidates enumerates (and caches in gs) all physical implementation
// candidates of a group, each fully costed with child winners resolved, and
// closes gs's foot and proj. The candidates collect on top of the search's
// candidate stack — nested enumerations of child groups push and pop above
// them — and move to an exactly sized arena slice at the end.
func (s *search) groupCandidates(gs *groupSearch, g *Group) []*pexpr {
	if gs.enumerated {
		return gs.candidates
	}
	gs.enumerated = true // cycle guard: no candidates until the loop is done
	base := len(s.candBuf)
	for _, e := range g.Exprs {
		rules := s.o.Rules.implementsFor(e.Node.Op)
		if e.impls == nil {
			e.impls = s.scratch.impls.take(len(rules), implChunkLen)
		}
		for i, r := range rules {
			ri := r.Info()
			if !s.ruleEnabled(ri, &gs.foot) {
				continue
			}
			// Implement reads no configuration, so on the frozen memo its
			// result belongs to the expression: asked once, kept for every
			// compile of the session (ImplementRule's contract).
			alt := &e.impls[i]
			if !alt.done {
				alt.protos, alt.done = r.Implement(e, s.m), true
			}
			if len(alt.protos) > 0 {
				s.firings[ri.Category]++
			}
			for _, proto := range alt.protos {
				if p := s.buildCandidate(gs, e, proto, ri.ID); p != nil {
					s.candBuf = append(s.candBuf, p)
				}
			}
		}
	}
	gs.candidates = s.childSlice(len(s.candBuf) - base)
	copy(gs.candidates, s.candBuf[base:])
	s.candBuf = s.candBuf[:base]
	gs.proj = s.cfg.And(gs.foot)
	return gs.candidates
}

// buildCandidate resolves child requirements and costs one implementation
// candidate of the group gs is enumerating, ORing into gs.foot the foot of
// every child it visits. Returns nil when a child has no feasible plan.
func (s *search) buildCandidate(gs *groupSearch, e *MExpr, proto *PhysProto, ruleID int) *pexpr {
	g := e.Group
	children := s.childSlice(len(e.Children))
	var childTotal float64
	for i, cg := range e.Children {
		req := plan.Distribution{Kind: plan.DistAny}
		if i < len(proto.ChildReq) {
			req = proto.ChildReq[i]
		}
		if req.Kind == plan.DistBroadcast && i > 0 && children[0] != nil {
			// Broadcast replicates to every consumer partition: the
			// replication factor is the probe side's parallelism.
			req.DOP = children[0].dop
		}
		var w *pexpr
		var cs *groupSearch
		if i == 0 && proto.LocalPre != 0 {
			// Two-phase implementation: run a local pre-operator on the
			// child's unconstrained plan, then enforce the requirement on
			// the (much smaller) pre-aggregated stream.
			w, cs = s.optimizeGroup(cg, plan.Distribution{Kind: plan.DistAny})
			if w != nil {
				w = s.wrapLocalPre(w, proto, e, ruleID)
				if !w.outDist.Satisfies(req) {
					w = s.enforce(w, req)
				}
			}
		} else {
			w, cs = s.optimizeGroup(cg, req)
		}
		// The child's reads are this group's too, whether or not the child
		// had a plan: they decided this branch.
		gs.foot = gs.foot.Or(cs.foot)
		if w == nil {
			return nil
		}
		if proto.NeedsSort {
			w = s.wrapSort(w, cg)
		}
		children[i] = w
		childTotal += w.total
	}

	// Scratch slices: DerivePropsFrom and the estimator only read them, so
	// the backing arrays are reused across every candidate of the search.
	// All child recursion is complete by this point, so no nested
	// buildCandidate can clobber them before DerivePropsFrom returns.
	childProps := s.propsBuf[:0]
	childSchemas := s.schemaBuf[:0]
	for i := range children {
		childProps = append(childProps, children[i].props)
		childSchemas = append(childSchemas, e.Children[i].Schema)
	}
	s.propsBuf, s.schemaBuf = childProps, childSchemas
	props := s.m.DerivePropsFrom(&s.scratch.physStats, proto.Node, childProps, childSchemas, g.Schema)
	p := s.newPexpr()
	*p = pexpr{
		op:       proto.Op,
		node:     proto.Node,
		children: children,
		lexpr:    e,
		ruleID:   ruleID,
		props:    props,
		rows:     props.Rows,
		rowBytes: props.RowBytes,
		buildIdx: proto.BuildIdx,
	}
	p.dop = s.chooseOpDOP(p)
	p.outDist = s.deliveredDist(proto, p)
	p.usage = s.localUsage(p)
	p.total = childTotal + p.usage.LatencySeconds
	return p
}

// chooseOpDOP derives the operator's degree of parallelism. Parallelism is
// decided where data lands — scans and exchanges — and *inherited* everywhere
// else: an operator consuming partitions in place cannot change their count
// without an exchange. Since scans and exchanges size their partitions from
// estimated bytes (cost.ChooseDOP), every estimation error propagates into a
// mis-fit degree of parallelism exactly as §5.3 describes.
func (s *search) chooseOpDOP(p *pexpr) int {
	switch p.op {
	case plan.PhysExtract, plan.PhysRangeScan:
		// Scan parallelism follows the stored stream's partitioning, not
		// the (possibly tiny) filtered output.
		rows, bytes := s.scanInput(p)
		return cost.ChooseDOP(rows, bytes, s.maxDOP())
	case plan.PhysGlobalTop, plan.PhysMultiImpl:
		return 1
	case plan.PhysVirtualDataset:
		// Virtual union keeps every branch's partitions in place.
		d := 0
		for _, c := range p.children {
			d += c.dop
		}
		if d < 1 {
			d = 1
		}
		return d
	case plan.PhysUnionMerge:
		return cost.ChooseDOP(p.rows, p.rowBytes, s.maxDOP())
	case plan.PhysHashJoin, plan.PhysMergeJoin:
		// Both sides were re-partitioned to matching hash layouts.
		d := 1
		for _, c := range p.children {
			if c.dop > d {
				d = c.dop
			}
		}
		return d
	case plan.PhysHashJoinAlt, plan.PhysLoopJoin:
		// Probe side layout preserved; build side broadcast.
		if len(p.children) > 0 {
			return maxInt(p.children[0].dop, 1)
		}
		return 1
	default:
		// Everything else consumes its (first) child's partitions in place.
		if len(p.children) > 0 {
			return maxInt(p.children[0].dop, 1)
		}
		return 1
	}
}

func (s *search) maxDOP() int {
	if s.o.MaxDOP > 0 {
		return s.o.MaxDOP
	}
	return 50
}

// deliveredDist resolves the candidate's output distribution; a proto OutDist
// of DistAny means "inherit from the first child".
func (s *search) deliveredDist(proto *PhysProto, p *pexpr) plan.Distribution {
	d := proto.OutDist
	if d.Kind == plan.DistAny {
		if len(p.children) > 0 {
			d = p.children[0].outDist
		} else {
			d = plan.Distribution{Kind: plan.DistRandom}
		}
	}
	d.DOP = p.dop
	return d
}

// scanInput returns the estimated size of the stream a scan reads.
func (s *search) scanInput(p *pexpr) (rows, bytes float64) {
	if st := s.o.Est.Cat.Stream(p.node.Table); st != nil {
		return st.BaseRows, st.BaseRows * st.BytesPerRow
	}
	return p.rows, p.rows * p.rowBytes
}

// localUsage costs the candidate's own operator.
func (s *search) localUsage(p *pexpr) cost.OpUsage {
	var inRows, inBytes float64
	for _, c := range p.children {
		inRows += c.rows
		inBytes += c.rows * c.rowBytes
	}
	if p.op == plan.PhysExtract || p.op == plan.PhysRangeScan {
		inRows, inBytes = s.scanInput(p)
	}
	params := cost.OpCostParams{
		Op:       p.op,
		Exchange: p.exchange,
		InRows:   inRows,
		InBytes:  inBytes,
		OutRows:  p.rows,
		OutBytes: p.rows * p.rowBytes,
		DOP:      p.dop,
		Branches: len(p.children),
	}
	if p.node != nil {
		params.TopN = p.node.TopN
		if p.node.Processor != "" {
			params.UDO = s.o.Est.Cat.UDO(p.node.Processor)
		}
	}
	if len(p.children) == 2 && (p.op == plan.PhysHashJoin || p.op == plan.PhysHashJoinAlt || p.op == plan.PhysMergeJoin || p.op == plan.PhysLoopJoin) {
		b := p.buildIdx
		if b < 0 || b > 1 {
			b = 1
		}
		params.BuildRows = p.children[b].rows
		params.ProbeRows = p.children[1-b].rows
	}
	return s.o.Coster.Cost(params)
}

// enforce wraps a candidate with an Exchange enforcer so it satisfies req.
func (s *search) enforce(inner *pexpr, req plan.Distribution) *pexpr {
	var kind plan.ExchangeKind
	dop := 0
	switch req.Kind {
	case plan.DistHash, plan.DistRandom:
		kind = plan.ExchangeShuffle
		dop = cost.ChooseDOP(inner.rows, inner.rowBytes, s.maxDOP())
	case plan.DistSingleton:
		kind = plan.ExchangeGather
		dop = 1
	case plan.DistBroadcast:
		kind = plan.ExchangeBroadcast
		if req.DOP > 0 {
			dop = req.DOP
		} else {
			dop = cost.ChooseDOP(inner.rows, inner.rowBytes, s.maxDOP())
		}
	default:
		return inner
	}
	ex := s.newPexpr()
	*ex = pexpr{
		op:       plan.PhysExchange,
		node:     s.placeholderNode(inner.node.Schema),
		children: s.oneChild(inner),
		ruleID:   s.o.EnforceExchangeID,
		props:    inner.props,
		rows:     inner.rows,
		rowBytes: inner.rowBytes,
		exchange: kind,
		dop:      dop,
		buildIdx: -1,
	}
	ex.outDist = plan.Distribution{Kind: req.Kind, Keys: req.Keys, DOP: dop}
	ex.usage = s.localUsage(ex)
	ex.total = inner.total + ex.usage.LatencySeconds
	return ex
}

// wrapLocalPre inserts the local phase of a two-phase operator above a child
// plan: per-partition pre-aggregation or per-partition top-N.
func (s *search) wrapLocalPre(inner *pexpr, proto *PhysProto, e *MExpr, ruleID int) *pexpr {
	outRows := inner.rows
	switch proto.LocalPre {
	case plan.PhysPartialHashAgg:
		// Each partition holds at most one row per output group, estimated
		// from this candidate's own child statistics. Uses the same
		// read-only scratch slices as buildCandidate: this call completes
		// before the caller fills them for its own DerivePropsFrom.
		cp := append(s.propsBuf[:0], inner.props)
		cs := append(s.schemaBuf[:0], e.Children[0].Schema)
		s.propsBuf, s.schemaBuf = cp, cs
		final := s.m.DerivePropsFrom(&s.scratch.physStats, proto.Node, cp, cs, e.Group.Schema)
		outRows = minFloat(inner.rows, final.Rows*float64(maxInt(inner.dop, 1)))
	case plan.PhysLocalTop:
		outRows = minFloat(inner.rows, float64(proto.Node.TopN*maxInt(inner.dop, 1)))
	default:
		// No other operator is used as a local pre-phase.
	}
	// Props value copy shares the NDV set copy-on-write; only Rows differs
	// and nothing downstream mutates a derived set in place (see cost.Props).
	preProps := inner.props
	preProps.Rows = maxFloat(1, outRows)
	pre := s.newPexpr()
	*pre = pexpr{
		op:       proto.LocalPre,
		node:     proto.Node,
		children: s.oneChild(inner),
		lexpr:    e,
		ruleID:   ruleID,
		props:    preProps,
		rows:     preProps.Rows,
		rowBytes: inner.rowBytes,
		outDist:  inner.outDist,
		dop:      inner.dop,
		buildIdx: -1,
	}
	pre.usage = s.localUsage(pre)
	pre.total = inner.total + pre.usage.LatencySeconds
	return pre
}

func minFloat(a, b float64) float64 {
	if a < b {
		return a
	}
	return b
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}

// wrapSort inserts a Sort enforcer above a child winner (merge join, stream
// aggregation).
func (s *search) wrapSort(inner *pexpr, g *Group) *pexpr {
	srt := s.newPexpr()
	*srt = pexpr{
		op:       plan.PhysSort,
		node:     s.placeholderNode(g.Schema),
		children: s.oneChild(inner),
		ruleID:   s.o.EnforceSortID,
		props:    inner.props,
		rows:     inner.rows,
		rowBytes: inner.rowBytes,
		outDist:  inner.outDist,
		dop:      inner.dop,
		buildIdx: -1,
	}
	srt.usage = s.localUsage(srt)
	srt.total = inner.total + srt.usage.LatencySeconds
	return srt
}

// SortedKeys returns column IDs sorted ascending (canonical form for hash
// distribution requirements). Key lists are tiny, so insertion sort beats
// sort.Slice and avoids its closure allocation on a per-candidate path.
func SortedKeys(cols []plan.Column) []plan.ColumnID {
	ids := make([]plan.ColumnID, len(cols))
	for i, c := range cols {
		ids[i] = c.ID
	}
	for i := 1; i < len(ids); i++ {
		for j := i; j > 0 && ids[j] < ids[j-1]; j-- {
			ids[j], ids[j-1] = ids[j-1], ids[j]
		}
	}
	return ids
}
