package cascades

import (
	"sync"

	"steerq/internal/bitvec"
	"steerq/internal/cost"
	"steerq/internal/plan"
)

// Chunk sizes for the slab allocators. Fixed small chunks bound waste to one
// partial tail per slab and make recycling trivial: a chunk is either fully
// reusable or not yet allocated.
const (
	pexprChunkLen  = 64
	childChunkLen  = 256
	mexprChunkLen  = 64
	groupChunkLen  = 32
	gsliceChunkLen = 128
	exprsChunkLen  = 128
	exprsSeedCap   = 4
	nodeChunkLen   = 64
	implChunkLen   = 128
	stateChunkLen  = 64
	winnerChunkLen = 64
	headChunkLen   = 256
	keysChunkLen   = 4096

	colsChunkLen       = 512
	aggsChunkLen       = 128
	projsChunkLen      = 64
	sortKeysChunkLen   = 64
	idsChunkLen        = 1024
	distsChunkLen      = 256
	protosChunkLen     = 128
	protoListsChunkLen = 256
	rnodesChunkLen     = 64
	rchildrenChunkLen  = 128
	resultsChunkLen    = 64
	predsChunkLen      = 128
	exprNodesChunkLen  = 128
	exprArgsChunkLen   = 256
)

// slab is a chunked bump allocator: elements are carved front to back from
// fixed-size chunks, and reset zeroes what was handed out and rewinds, so a
// steady-state user allocates nothing. The cursor only ever advances between
// resets, so nothing is handed out twice.
type slab[T any] struct {
	chunks [][]T
	used   int // chunks[:used] have been carved from since the last reset
	tail   []T // uncarved remainder of chunks[used-1]
}

func (s *slab[T]) refill(chunkLen int) {
	if s.used == len(s.chunks) {
		s.chunks = append(s.chunks, make([]T, chunkLen))
	}
	s.tail = s.chunks[s.used]
	s.used++
}

// one returns a zeroed element.
func (s *slab[T]) one(chunkLen int) *T {
	if len(s.tail) == 0 {
		s.refill(chunkLen)
	}
	p := &s.tail[0]
	s.tail = s.tail[1:]
	return p
}

// take returns n zeroed elements, capacity clipped to n so no holder can
// append into a neighbour. A request wider than a chunk is a one-off
// allocation outside the slab (operator fan-ins that wide do not occur in
// practice).
func (s *slab[T]) take(n, chunkLen int) []T {
	if n == 0 {
		return nil
	}
	if len(s.tail) < n {
		if n > chunkLen {
			return make([]T, n)
		}
		s.refill(chunkLen)
	}
	out := s.tail[:n:n]
	s.tail = s.tail[n:]
	return out
}

// reset zeroes everything carved since the last reset — which also drops the
// references the elements held into a dead search graph — and rewinds.
func (s *slab[T]) reset() {
	for i, c := range s.chunks[:s.used] {
		if i == s.used-1 {
			c = c[:len(c)-len(s.tail)]
		}
		clear(c)
	}
	s.used, s.tail = 0, nil
}

// searchScratch is the recyclable allocation arena of one Session: every slab
// the memos and the physical searches carve from, plus the interning maps,
// the filed group states and the per-compile scratch buffers. Compilation
// allocates the same few hundred kilobytes of short-lived memory for every
// candidate configuration; recycling the arena turns that from GC churn into
// a handful of memclears and map clears.
//
// The arena has four lifetimes (DESIGN.md, "Two phases, two key sets"):
//
//   - the apply side — the wrappers that carry one rule application's
//     output to Intern (carve.go) — is rewound after every application;
//   - the compile side — which state each group resolved to, the property
//     and candidate stacks — lives for one compile and is handed back by
//     search.release;
//   - the build side is what a memo needs only while it is interned and
//     explored; Memo.freeze hands it back for the session's next memo;
//   - everything else lives until Session.Close: the memo side —
//     expressions and their keys, groups and their statistics, child
//     slices, payload copies, everything a rule carves for its output
//     (carve.go), cached implementation alternatives — carved by every memo
//     of the session, and the physical side — the filed group states with
//     their candidates, winners and statistics — carved by every compile,
//     since a later compile reuses any state its configuration cannot tell
//     apart.
//
// Safety rests on an ownership argument, not on luck: extract materializes
// the winning plan into fresh plan.PhysNodes and copies out every payload
// slice, hash-key list and expression node the arena owns (kept, keptExpr),
// sharing only what the input plan or the heap owns — strings, the logical
// plan's own slices and expressions. No pointer into the arena survives in
// a Result, so once the session is closed the arena can be zeroed and handed
// to the next one.
type searchScratch struct {
	// Physical side. filed heads each memo's state lists, by GroupID, in
	// slices carved from heads; epoch is the last visit stamp (extract.go).
	pexprs    slab[pexpr]
	children  slab[*pexpr]    // candidate children and group candidate lists
	enforcers slab[plan.Node] // enforcer payload placeholders
	states    slab[groupSearch]
	winners   slab[groupWinner]
	heads     slab[*groupSearch]
	filed     map[*Memo][]*groupSearch
	physStats cost.Arena // pexpr.props column statistics
	epoch     uint32

	// Compile side.
	cur       []*groupSearch // indexed by GroupID
	candBuf   []*pexpr
	propsBuf  []cost.Props
	schemaBuf [][]plan.Column

	// Build side.
	groupList  []*Group
	buckets    map[uint64]*MExpr
	byNode     map[*plan.Node]*Group
	keyScratch []byte
	memoProps  []cost.Props
	memoSchema [][]plan.Column

	// Memo side. nodes back the memos' shallow payload copies and the
	// rules' payloads: plan extraction copies payload fields out of them but
	// never retains the structs. cols, aggs, projs and sortKeys back the
	// rules' payload slices, exprNodes and exprArgs their predicate trees,
	// protos, protoLists, dists and ids their implementation prototypes,
	// child requirements and hash keys, and names their column names
	// (Memo.Name). keys back MExpr.key.
	mexprs     slab[MExpr]
	groups     slab[Group]
	gslices    slab[*Group]
	exprs      slab[*MExpr]
	nodes      slab[plan.Node]
	impls      slab[implAlt]
	keys       slab[byte]
	cols       slab[plan.Column]
	aggs       slab[plan.Agg]
	projs      slab[plan.Projection]
	sortKeys   slab[plan.SortKey]
	ids        slab[plan.ColumnID]
	dists      slab[plan.Distribution]
	protos     slab[PhysProto]
	protoLists slab[*PhysProto]
	exprNodes  slab[plan.Expr]
	exprArgs   slab[*plan.Expr]
	names      map[nameKey]string
	// memoStats backs Group.Props column statistics.
	memoStats cost.Arena
	// memos are the session's explored memos by cfg ∧ transformMask.
	memos map[bitvec.Key]*Memo

	// Apply side.
	rnodes    slab[RNode]
	rchildren slab[RChild]
	results   slab[*RNode]
	preds     slab[*plan.Expr]
}

// newSearchScratch builds an empty arena; the slabs grow lazily on first use.
func newSearchScratch() *searchScratch {
	return &searchScratch{
		buckets: make(map[uint64]*MExpr, 64),
		byNode:  make(map[*plan.Node]*Group),
		memos:   make(map[bitvec.Key]*Memo),
		filed:   make(map[*Memo][]*groupSearch),
		names:   make(map[nameKey]string),
	}
}

// scratchPool is the one owner of idle arenas: NewSession takes one and
// Session.Close puts it back, so every session — a one-shot Optimize or a
// whole job analysis — costs one pool round trip. Entries are dropped by the
// runtime under memory pressure, so a one-off giant compile cannot pin its
// arena forever.
var scratchPool = sync.Pool{
	New: func() any { return newSearchScratch() },
}

// recycled returns buf emptied, with the references parked anywhere in its
// backing array dropped.
func recycled[T any](buf []T) []T {
	buf = buf[:cap(buf)]
	clear(buf)
	return buf[:0]
}

// release ends a compile: its rule firings go to the shared counters in one
// add per category, and the arena takes back the compile side, whose buffers
// may have grown (or been reallocated) during the search. The group states
// stay filed for the session's later compiles.
func (s *search) release() {
	for c, n := range s.firings {
		if n != 0 {
			s.o.om.firings[c].Add(n)
		}
	}
	sc := s.scratch
	clear(s.cur)
	sc.candBuf = recycled(s.candBuf)
	sc.propsBuf = recycled(s.propsBuf)
	sc.schemaBuf = recycled(s.schemaBuf)
}

// freeze ends the memo's build phase: the group list moves to an exactly
// sized memo-side slice and the interning maps and scratch buffers go back
// to the arena for the session's next memo. A frozen memo is read-only —
// Intern on it faults on the nil index — which is what lets every later
// compile of the session run its physical phase on it.
func (m *Memo) freeze() {
	sc := m.arena
	groups := sc.gslices.take(len(m.Groups), gsliceChunkLen)
	copy(groups, m.Groups)
	sc.groupList, m.Groups = recycled(m.Groups), groups
	clear(m.byNode)
	clear(m.buckets)
	m.byNode, m.buckets = nil, nil
	sc.keyScratch, m.scratch = m.scratch[:0], nil
	sc.memoProps, m.propsBuf = recycled(m.propsBuf), nil
	sc.memoSchema, m.schemaBuf = recycled(m.schemaBuf), nil
}

// retire recycles the physical and memo sides, leaving the arena as empty as
// a new one for the next session. Must run only after every compile of the
// session has extracted its plan.
func (sc *searchScratch) retire() {
	sc.pexprs.reset()
	sc.children.reset()
	sc.enforcers.reset()
	sc.states.reset()
	sc.winners.reset()
	sc.heads.reset()
	clear(sc.filed)
	sc.physStats.Reset()
	sc.epoch = 0
	sc.mexprs.reset()
	sc.groups.reset()
	sc.gslices.reset()
	sc.exprs.reset()
	sc.nodes.reset()
	sc.impls.reset()
	sc.keys.reset()
	sc.cols.reset()
	sc.aggs.reset()
	sc.projs.reset()
	sc.sortKeys.reset()
	sc.ids.reset()
	sc.dists.reset()
	sc.protos.reset()
	sc.protoLists.reset()
	sc.exprNodes.reset()
	sc.exprArgs.reset()
	clear(sc.names)
	sc.applied()
	sc.memoStats.Reset()
	clear(sc.memos)
}
