package cascades

import (
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
	// Memo.DerivePropsFrom. props.Rows and props.RowBytes are its output
	// cardinality and row width.
	props    cost.Props
	usage    cost.OpUsage // local usage
	total    float64      // cumulative estimated latency cost
	exchange plan.ExchangeKind
	buildIdx int

	// next and enforced are the session's reuse links. next is the pexpr
	// after this one on the list it is filed on: its prototype's candidates
	// (implAlt.built) or its inner pexpr's enforcers. enforced heads the
	// enforcers built over this pexpr, one per requirement (enforce).
	next, enforced *pexpr

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
	// requirements, so a scan comparing them with sameDist beats hashing.
	winners *groupWinner
	// candidates are the group's costed implementation alternatives once
	// enumerated is set.
	candidates []*pexpr
	enumerated bool
	// next is the state filed after this one for the same group.
	next *groupSearch
}

// groupWinner is one entry of a state's winner list: the requirement as the
// caller passed it and the best plan for it. dist.Keys aliases the requiring
// rule's PhysProto.ChildReq, carved from the memo and never mutated once
// returned — enforcers alias the same keys into their outDist, and
// extraction copies them out of the arena — so holding the requirement
// itself costs no copy.
type groupWinner struct {
	dist plan.Distribution
	w    *winner
	next *groupWinner
}

// implAlt is what one implementation rule returned for one expression and,
// per prototype, the head of the candidates the session built from it over
// distinct child winners (buildCandidate).
type implAlt struct {
	protos []*PhysProto
	built  []*pexpr
	done   bool
}

// sameDist reports whether two requirements are the same: kind, degree of
// parallelism and hash keys in order.
func sameDist(a, b plan.Distribution) bool {
	if a.Kind != b.Kind || a.DOP != b.DOP || len(a.Keys) != len(b.Keys) {
		return false
	}
	for i := range a.Keys {
		if a.Keys[i] != b.Keys[i] {
			return false
		}
	}
	return true
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
	for gw := gs.winners; gw != nil; gw = gw.next {
		if sameDist(gw.dist, req) {
			return gw.w, gs
		}
	}
	// Mark in-progress (a nil winner) to make accidental cycles fail loudly
	// rather than recurse forever (logical DAGs are acyclic, so this never
	// triggers on well-formed input). A winner reads no configuration bit —
	// only the candidates and enforce — so one found for a new requirement
	// belongs to the state like the candidates do.
	gw := s.scratch.winners.one(winnerChunkLen)
	gw.dist, gw.next = req, gs.winners
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
				alt.built = s.childSlice(len(alt.protos))
			}
			if len(alt.protos) > 0 {
				s.firings[ri.Category]++
			}
			for j, proto := range alt.protos {
				if p := s.buildCandidate(gs, e, proto, ri.ID, &alt.built[j]); p != nil {
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
//
// The child winners are resolved first, in child order. A candidate is a
// function of its prototype and those winners alone, so one built earlier in
// the session from proto over the same winners — on the list *built heads —
// is returned as is instead of being built and costed again (DESIGN.md,
// "Candidate reuse").
func (s *search) buildCandidate(gs *groupSearch, e *MExpr, proto *PhysProto, ruleID int, built **pexpr) *pexpr {
	// The winners go on the candidate stack: nested enumerations push and
	// pop above them, and they are popped before the caller pushes the
	// candidate.
	base := len(s.candBuf)
	var first *pexpr // child 0 as consumed, once a broadcast requirement reads its DOP
	for i, cg := range e.Children {
		req := childReq(proto, i)
		if req.Kind == plan.DistBroadcast && i > 0 {
			// Broadcast replicates to every consumer partition: the
			// replication factor is the probe side's parallelism.
			if first == nil {
				first = s.consume(e, proto, ruleID, 0, s.candBuf[base])
			}
			req.DOP = first.dop
		}
		if i == 0 && proto.LocalPre != 0 {
			// Two-phase implementation: the local pre-operator runs on the
			// child's unconstrained plan (see consume).
			req = plan.Distribution{Kind: plan.DistAny}
		}
		w, cs := s.optimizeGroup(cg, req)
		// The child's reads are this group's too, whether or not the child
		// had a plan: they decided this branch.
		gs.foot = gs.foot.Or(cs.foot)
		if w == nil {
			s.candBuf = s.candBuf[:base]
			return nil
		}
		s.candBuf = append(s.candBuf, w)
	}
	winners := s.candBuf[base:]
	s.resolved++
	for p := *built; p != nil; p = p.next {
		if builtOver(p, proto, winners) {
			s.candBuf = s.candBuf[:base]
			return p
		}
	}
	s.costed++

	children := s.childSlice(len(winners))
	var childTotal float64
	for i, w := range winners {
		c := first
		if i > 0 || c == nil {
			c = s.consume(e, proto, ruleID, i, w)
		}
		children[i] = c
		childTotal += c.total
	}
	s.candBuf = s.candBuf[:base]

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
	props := s.m.DerivePropsFrom(&s.scratch.physStats, proto.Node, childProps, childSchemas, e.Group.Schema)
	p := s.newPexpr()
	*p = pexpr{
		op:       proto.Op,
		node:     proto.Node,
		children: children,
		lexpr:    e,
		ruleID:   ruleID,
		props:    props,
		buildIdx: proto.BuildIdx,
		next:     *built,
	}
	*built = p
	p.dop = s.chooseOpDOP(p)
	p.outDist = s.deliveredDist(proto, p)
	p.usage = s.localUsage(p)
	p.total = childTotal + p.usage.LatencySeconds
	return p
}

// childReq is the distribution proto requires of child i, before a
// broadcast requirement learns its DOP.
func childReq(proto *PhysProto, i int) plan.Distribution {
	if i < len(proto.ChildReq) {
		return proto.ChildReq[i]
	}
	return plan.Distribution{Kind: plan.DistAny}
}

// consume returns child i's winner w as a candidate built from proto
// consumes it. For a two-phase implementation child 0 gets the local
// pre-operator, then an enforcer for the child requirement on the (much
// smaller) pre-aggregated stream; a prototype that needs sorted input gets a
// Sort on every child.
func (s *search) consume(e *MExpr, proto *PhysProto, ruleID, i int, w *pexpr) *pexpr {
	if i == 0 && proto.LocalPre != 0 {
		w = s.wrapLocalPre(w, proto, e, ruleID)
		if req := childReq(proto, 0); !w.outDist.Satisfies(req) {
			w = s.enforce(w, req)
		}
	}
	if proto.NeedsSort {
		w = s.wrapSort(w, e.Children[i])
	}
	return w
}

// builtOver reports whether candidate p, built from proto, was built over
// winners: consume undone, child by child.
func builtOver(p *pexpr, proto *PhysProto, winners []*pexpr) bool {
	for i, w := range winners {
		c := p.children[i]
		if proto.NeedsSort {
			c = c.children[0]
		}
		if i == 0 && proto.LocalPre != 0 {
			if c.op != proto.LocalPre {
				c = c.children[0] // the enforcer over the pre-operator
			}
			c = c.children[0]
		}
		if c != w {
			return false
		}
	}
	return true
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
		return cost.ChooseDOP(s.scanInput(p), maxDOP)
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
		return cost.ChooseDOP(p.props, maxDOP)
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
func (s *search) scanInput(p *pexpr) cost.Props {
	if st := s.o.Est.Cat.Stream(p.node.Table); st != nil {
		return cost.Props{Rows: st.BaseRows, RowBytes: st.BytesPerRow}
	}
	return p.props
}

// localUsage costs the candidate's own operator.
func (s *search) localUsage(p *pexpr) cost.OpUsage {
	var inRows, inBytes float64
	for _, c := range p.children {
		inRows += c.props.Rows
		inBytes += c.props.Rows * c.props.RowBytes
	}
	if p.op == plan.PhysExtract || p.op == plan.PhysRangeScan {
		in := s.scanInput(p)
		inRows, inBytes = in.Rows, in.Rows*in.RowBytes
	}
	params := cost.OpCostParams{
		Op:       p.op,
		Exchange: p.exchange,
		InRows:   inRows,
		InBytes:  inBytes,
		OutRows:  p.props.Rows,
		DOP:      p.dop,
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
		params.BuildRows = p.children[b].props.Rows
		params.ProbeRows = p.children[1-b].props.Rows
	}
	return cost.Cost(params)
}

// enforce wraps a candidate with an Exchange enforcer so it satisfies req.
// The enforcer is a function of inner and req alone, so one the session
// already built over inner for req is returned as is.
func (s *search) enforce(inner *pexpr, req plan.Distribution) *pexpr {
	var kind plan.ExchangeKind
	dop := 0
	switch req.Kind {
	case plan.DistHash, plan.DistRandom:
		kind = plan.ExchangeShuffle
		dop = cost.ChooseDOP(inner.props, maxDOP)
	case plan.DistSingleton:
		kind = plan.ExchangeGather
		dop = 1
	case plan.DistBroadcast:
		kind = plan.ExchangeBroadcast
		if req.DOP > 0 {
			dop = req.DOP
		} else {
			dop = cost.ChooseDOP(inner.props, maxDOP)
		}
	default:
		return inner
	}
	out := plan.Distribution{Kind: req.Kind, Keys: req.Keys, DOP: dop}
	for ex := inner.enforced; ex != nil; ex = ex.next {
		if sameDist(ex.outDist, out) {
			return ex
		}
	}
	ex := s.newPexpr()
	*ex = pexpr{
		op:       plan.PhysExchange,
		node:     s.placeholderNode(inner.node.Schema),
		children: s.oneChild(inner),
		ruleID:   s.o.EnforceExchangeID,
		props:    inner.props,
		outDist:  out,
		exchange: kind,
		dop:      dop,
		buildIdx: -1,
		next:     inner.enforced,
	}
	inner.enforced = ex
	ex.usage = s.localUsage(ex)
	ex.total = inner.total + ex.usage.LatencySeconds
	return ex
}

// wrapLocalPre inserts the local phase of a two-phase operator above a child
// plan: per-partition pre-aggregation or per-partition top-N.
func (s *search) wrapLocalPre(inner *pexpr, proto *PhysProto, e *MExpr, ruleID int) *pexpr {
	outRows := inner.props.Rows
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
		outRows = minFloat(inner.props.Rows, final.Rows*float64(maxInt(inner.dop, 1)))
	case plan.PhysLocalTop:
		outRows = minFloat(inner.props.Rows, float64(proto.Node.TopN*maxInt(inner.dop, 1)))
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
		outDist:  inner.outDist,
		dop:      inner.dop,
		buildIdx: -1,
	}
	srt.usage = s.localUsage(srt)
	srt.total = inner.total + srt.usage.LatencySeconds
	return srt
}
