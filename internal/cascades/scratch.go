package cascades

import (
	"sync"

	"steerq/internal/cost"
	"steerq/internal/plan"
)

// Chunk sizes for the compile-scoped slab allocators. Fixed small chunks
// bound waste to one partial tail per compile and make recycling trivial: a
// chunk is either fully reusable or not yet allocated.
const (
	pexprChunkLen  = 64
	childChunkLen  = 256
	mexprChunkLen  = 64
	groupChunkLen  = 32
	gsliceChunkLen = 128
	exprsChunkLen  = 128
	exprsSeedCap   = 4
	nodeChunkLen   = 64
)

// searchScratch is the recyclable allocation arena of one compile: every
// slab chunk the memo and the physical search carve from, plus the interning
// maps, the candidates map and the property scratch buffers. Compilation
// allocates the same few hundred kilobytes of short-lived memory for every
// candidate configuration; recycling the arena across Optimize calls turns
// that from GC churn into a handful of memclears and map clears.
//
// Safety rests on an ownership argument, not on luck: extract materializes
// the winning plan into fresh plan.PhysNodes whose payload slices belong to
// the plan.Nodes and schema arrays the rules allocated — never to a pexpr,
// an MExpr, a Group struct or any chunk. No pointer into the arena survives
// Optimize (the winners maps and interning indexes die with the memo), so
// once Optimize returns, the arena can be zeroed and handed to the next
// compile. Zeroing also drops the chunk-held references into the dead
// search graph, keeping the pool from pinning retired memos.
type searchScratch struct {
	// owned marks an arena held by a caller's Scratch handle: release still
	// zeroes it for the next compile but must not hand it to the shared
	// pool, or two owners could end up recycling one arena concurrently.
	owned bool

	// Physical-search side.
	pexprChunks [][]pexpr
	childChunks [][]*pexpr
	nextPexpr   int
	nextChild   int
	candidates  map[*Group][]*pexpr
	propsBuf    []cost.Props
	schemaBuf   [][]plan.Column

	// nodeChunks back the compile-scoped plan.Node copies: the memo's
	// shallow payload clones and the search's enforcer placeholders. Plan
	// extraction copies payload slice headers out of these nodes but never
	// retains the structs, so they recycle with the rest of the arena.
	nodeChunks [][]plan.Node
	nextNode   int

	// Memo side.
	mexprChunks  [][]MExpr
	groupChunks  [][]Group
	gsliceChunks [][]*Group
	exprsChunks  [][]*MExpr
	nextMExpr    int
	nextGroup    int
	nextGSlice   int
	nextExprs    int
	exprsTail    []*MExpr
	groups       []*Group
	buckets      map[uint64]*MExpr
	byNode       map[*plan.Node]*Group
	keyScratch   []byte
	memoProps    []cost.Props
	memoSchema   [][]plan.Column
}

// newSearchScratch builds an empty arena; the chunk slabs grow lazily on
// first use.
func newSearchScratch() *searchScratch {
	return &searchScratch{
		candidates: make(map[*Group][]*pexpr),
		buckets:    make(map[uint64]*MExpr, 64),
		byNode:     make(map[*plan.Node]*Group),
	}
}

// scratchPool recycles compile arenas across Optimize calls and goroutines.
// Entries are dropped by the runtime under memory pressure, so a one-off
// giant compile cannot pin its arena forever.
var scratchPool = sync.Pool{
	New: func() any { return newSearchScratch() },
}

// Scratch is a caller-owned compile arena for OptimizeInto and
// OptimizeCostInto. Call sites that compile in a tight loop — the steering
// pipeline's job-group fan-out keys one Scratch per scheduler worker — hold
// on to a Scratch so every compile reuses the same slabs and maps without a
// sync.Pool round trip (and without the pool's cross-goroutine handoffs,
// which under contention hand a cold arena to a hot loop). A Scratch must
// not be used by two compiles at once; the zero of exclusivity is the
// caller's worker identity. A nil *Scratch is valid and falls back to the
// shared pool.
type Scratch struct {
	sc *searchScratch
}

// NewScratch returns an empty caller-owned arena.
func NewScratch() *Scratch {
	sc := newSearchScratch()
	sc.owned = true
	return &Scratch{sc: sc}
}

// arena returns the backing arena, or nil to request the pooled path.
func (s *Scratch) arena() *searchScratch {
	if s == nil {
		return nil
	}
	return s.sc
}

// pexprChunk returns the next zeroed pexpr chunk, reusing a recycled one
// when available.
func (sc *searchScratch) pexprChunk() []pexpr {
	if sc.nextPexpr < len(sc.pexprChunks) {
		c := sc.pexprChunks[sc.nextPexpr]
		sc.nextPexpr++
		return c
	}
	c := make([]pexpr, pexprChunkLen)
	sc.pexprChunks = append(sc.pexprChunks, c)
	sc.nextPexpr = len(sc.pexprChunks)
	return c
}

// childChunk returns the next zeroed child-pointer chunk.
func (sc *searchScratch) childChunk() []*pexpr {
	if sc.nextChild < len(sc.childChunks) {
		c := sc.childChunks[sc.nextChild]
		sc.nextChild++
		return c
	}
	c := make([]*pexpr, childChunkLen)
	sc.childChunks = append(sc.childChunks, c)
	sc.nextChild = len(sc.childChunks)
	return c
}

// nodeChunk returns the next zeroed plan.Node chunk.
func (sc *searchScratch) nodeChunk() []plan.Node {
	if sc.nextNode < len(sc.nodeChunks) {
		c := sc.nodeChunks[sc.nextNode]
		sc.nextNode++
		return c
	}
	c := make([]plan.Node, nodeChunkLen)
	sc.nodeChunks = append(sc.nodeChunks, c)
	sc.nextNode = len(sc.nodeChunks)
	return c
}

// mexprChunk returns the next zeroed MExpr chunk.
func (sc *searchScratch) mexprChunk() []MExpr {
	if sc.nextMExpr < len(sc.mexprChunks) {
		c := sc.mexprChunks[sc.nextMExpr]
		sc.nextMExpr++
		return c
	}
	c := make([]MExpr, mexprChunkLen)
	sc.mexprChunks = append(sc.mexprChunks, c)
	sc.nextMExpr = len(sc.mexprChunks)
	return c
}

// groupChunk returns the next Group chunk. Recycled chunks keep each slot's
// (cleared) winners map so steady-state compiles reuse the map storage too.
func (sc *searchScratch) groupChunk() []Group {
	if sc.nextGroup < len(sc.groupChunks) {
		c := sc.groupChunks[sc.nextGroup]
		sc.nextGroup++
		return c
	}
	c := make([]Group, groupChunkLen)
	sc.groupChunks = append(sc.groupChunks, c)
	sc.nextGroup = len(sc.groupChunks)
	return c
}

// gsliceChunk returns the next zeroed child-group chunk.
func (sc *searchScratch) gsliceChunk() []*Group {
	if sc.nextGSlice < len(sc.gsliceChunks) {
		c := sc.gsliceChunks[sc.nextGSlice]
		sc.nextGSlice++
		return c
	}
	c := make([]*Group, gsliceChunkLen)
	sc.gsliceChunks = append(sc.gsliceChunks, c)
	sc.nextGSlice = len(sc.gsliceChunks)
	return c
}

// exprsSeed carves a len-0, cap-exprsSeedCap expression slice for a new
// group's Exprs. Groups outgrowing the seed spill to a regular append
// reallocation, which dies with the memo.
func (sc *searchScratch) exprsSeed() []*MExpr {
	if len(sc.exprsTail) < exprsSeedCap {
		if sc.nextExprs < len(sc.exprsChunks) {
			sc.exprsTail = sc.exprsChunks[sc.nextExprs]
		} else {
			c := make([]*MExpr, exprsChunkLen)
			sc.exprsChunks = append(sc.exprsChunks, c)
			sc.exprsTail = c
		}
		sc.nextExprs++
	}
	s := sc.exprsTail[:0:exprsSeedCap]
	sc.exprsTail = sc.exprsTail[exprsSeedCap:]
	return s
}

// release zeroes every chunk handed out this compile, clears the maps and
// buffers, and returns the arena to the pool. Must run only after the
// winning plan has been extracted.
func (s *search) release() {
	sc := s.scratch
	if sc == nil {
		return
	}
	for _, c := range sc.pexprChunks[:sc.nextPexpr] {
		clear(c)
	}
	for _, c := range sc.childChunks[:sc.nextChild] {
		clear(c)
	}
	for _, c := range sc.nodeChunks[:sc.nextNode] {
		clear(c)
	}
	sc.nextPexpr, sc.nextChild, sc.nextNode = 0, 0, 0
	clear(sc.candidates)
	// The buffers may have grown (or been reallocated) during the search;
	// take them back and drop any references parked beyond the live length.
	pb := s.propsBuf[:cap(s.propsBuf)]
	clear(pb)
	sc.propsBuf = pb[:0]
	sb := s.schemaBuf[:cap(s.schemaBuf)]
	clear(sb)
	sc.schemaBuf = sb[:0]

	if m := s.m; m != nil && m.arena == sc {
		for _, c := range sc.mexprChunks[:sc.nextMExpr] {
			clear(c)
		}
		for _, c := range sc.gsliceChunks[:sc.nextGSlice] {
			clear(c)
		}
		for _, c := range sc.exprsChunks[:sc.nextExprs] {
			clear(c)
		}
		for _, c := range sc.groupChunks[:sc.nextGroup] {
			for i := range c {
				w := c[i].winners
				clear(w)
				c[i] = Group{winners: w}
			}
		}
		sc.nextMExpr, sc.nextGroup, sc.nextGSlice, sc.nextExprs = 0, 0, 0, 0
		sc.exprsTail = nil
		clear(sc.byNode)
		clear(sc.buckets)
		gs := m.Groups[:cap(m.Groups)]
		clear(gs)
		sc.groups = gs[:0]
		sc.keyScratch = m.scratch[:0]
		mp := m.propsBuf[:cap(m.propsBuf)]
		clear(mp)
		sc.memoProps = mp[:0]
		ms := m.schemaBuf[:cap(m.schemaBuf)]
		clear(ms)
		sc.memoSchema = ms[:0]
		m.arena = nil
	}

	s.scratch = nil
	if !sc.owned {
		scratchPool.Put(sc)
	}
}
