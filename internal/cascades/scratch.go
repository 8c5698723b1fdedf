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
// the per-group search state and the property scratch buffers. Compilation
// allocates the same few hundred kilobytes of short-lived memory for every
// candidate configuration; recycling the arena turns that from GC churn into
// a handful of memclears and map clears.
//
// The arena has three lifetimes (DESIGN.md, "Two phases, two key sets"):
//
//   - the physical side — candidates and their statistics — lives for one
//     compile and is recycled by search.release;
//   - the build side is what a memo needs only while it is interned and
//     explored; Memo.freeze hands it back for the session's next memo;
//   - the memo side — expressions, groups and their statistics, child
//     slices, payload copies, cached implementation alternatives — is carved
//     by every memo of the session and stays put until Session.Close.
//
// Safety rests on an ownership argument, not on luck: extract materializes
// the winning plan into fresh plan.PhysNodes whose payload slices belong to
// the plan.Nodes and schema arrays the rules allocated — never to a pexpr,
// an MExpr, a Group struct or any chunk. No pointer into the arena survives
// in a Result, so once the session is closed the arena can be zeroed and
// handed to the next one.
type searchScratch struct {
	// Physical side.
	pexprs    slab[pexpr]
	children  slab[*pexpr]
	enforcers slab[plan.Node] // enforcer payload placeholders
	perGroup  []groupSearch   // indexed by GroupID; buffers kept across compiles
	physStats cost.Arena      // pexpr.props column statistics
	propsBuf  []cost.Props
	schemaBuf [][]plan.Column

	// Build side.
	groupList  []*Group
	buckets    map[uint64]*MExpr
	byNode     map[*plan.Node]*Group
	keyScratch []byte
	memoProps  []cost.Props
	memoSchema [][]plan.Column

	// Memo side. nodes back the memos' shallow payload copies: plan
	// extraction copies payload slice headers out of them but never retains
	// the structs, so they recycle with the rest.
	mexprs  slab[MExpr]
	groups  slab[Group]
	gslices slab[*Group]
	exprs   slab[*MExpr]
	nodes   slab[plan.Node]
	impls   slab[implAlt]
	// memoStats backs Group.Props column statistics.
	memoStats cost.Arena
	// memos are the session's explored memos by cfg ∧ transformMask.
	memos map[bitvec.Key]*Memo
}

// newSearchScratch builds an empty arena; the slabs grow lazily on first use.
func newSearchScratch() *searchScratch {
	return &searchScratch{
		buckets: make(map[uint64]*MExpr, 64),
		byNode:  make(map[*plan.Node]*Group),
		memos:   make(map[bitvec.Key]*Memo),
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

// release recycles the physical side once the winner (if any) has been
// extracted. The buffers may have grown (or been reallocated) during the
// search; the arena takes them back.
func (s *search) release() {
	sc := s.scratch
	sc.pexprs.reset()
	sc.children.reset()
	sc.enforcers.reset()
	sc.physStats.Reset()
	for i := range s.groups {
		gs := &s.groups[i]
		clear(gs.winners)
		clear(gs.candidates)
		*gs = groupSearch{winners: gs.winners[:0], candidates: gs.candidates[:0]}
	}
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

// retire recycles the memo side, leaving the arena as empty as a new one for
// the next session. Must run only after every compile of the session has
// extracted its plan.
func (sc *searchScratch) retire() {
	sc.mexprs.reset()
	sc.groups.reset()
	sc.gslices.reset()
	sc.exprs.reset()
	sc.nodes.reset()
	sc.impls.reset()
	sc.memoStats.Reset()
	clear(sc.memos)
}
