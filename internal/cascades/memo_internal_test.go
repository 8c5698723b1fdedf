package cascades

import (
	"bytes"
	"fmt"
	"math"
	"slices"
	"testing"

	"steerq/internal/bitvec"
	"steerq/internal/catalog"
	"steerq/internal/cost"
	"steerq/internal/plan"
)

// heap is the allocator the tests build plans with.
var heap plan.Heap

func memoCatalog() *catalog.Catalog {
	cat := catalog.New()
	cat.AddStream(&catalog.Stream{
		Name: "t",
		Columns: []catalog.Column{
			{Name: "a", Distinct: 100, TrueDistinct: 100, Min: 0, Max: 100},
			{Name: "b", Distinct: 50, TrueDistinct: 50, Min: 0, Max: 50},
		},
		BaseRows: 1e5, BytesPerRow: 16, GrowthPerDay: 1,
	})
	// A stream wide enough that one operator's column statistics outgrow a
	// fresh statistics arena's first buffer.
	wide := &catalog.Stream{Name: "w", BaseRows: 1e6, BytesPerRow: 8 * wideCols, GrowthPerDay: 1}
	for i := 0; i < wideCols; i++ {
		d := float64(10 * (i + 1))
		wide.Columns = append(wide.Columns, catalog.Column{Name: fmt.Sprintf("c%d", i), Distinct: d, TrueDistinct: d, Min: 0, Max: d})
	}
	cat.AddStream(wide)
	return cat
}

const wideCols = 100

// wideSchema is stream w's columns, IDs from 100.
func wideSchema() []plan.Column {
	cols := make([]plan.Column, wideCols)
	for i := range cols {
		name := fmt.Sprintf("c%d", i)
		cols[i] = plan.Column{ID: plan.ColumnID(100 + i), Name: name, Source: "w." + name}
	}
	return cols
}

func tcol(id int, name string) plan.Column {
	return plan.Column{ID: plan.ColumnID(id), Name: name, Source: "t." + name}
}

func scanSelect() *plan.Node {
	a, b := tcol(1, "a"), tcol(2, "b")
	get := plan.NewGet(heap, "t", []plan.Column{a, b})
	sel := plan.NewSelect(heap, get, plan.Cmp(heap, plan.OpGT, plan.ColExpr(heap, b), plan.NumExpr(heap, 5)))
	return plan.NewOutput(heap, sel, "o")
}

func TestMemoInitialGroups(t *testing.T) {
	m := NewMemo(scanSelect(), cost.NewEstimated(memoCatalog()))
	if len(m.Groups) != 3 {
		t.Fatalf("memo has %d groups, want 3 (Get, Select, Output)", len(m.Groups))
	}
	if m.Root.Exprs[0].Node.Op != plan.OpOutput {
		t.Fatalf("root op %v", m.Root.Exprs[0].Node.Op)
	}
	for _, g := range m.Groups {
		if g.Props.Rows <= 0 {
			t.Fatalf("group %d has no derived cardinality", g.ID)
		}
	}
}

func TestMemoSharedNodesShareGroups(t *testing.T) {
	a := tcol(1, "a")
	get := plan.NewGet(heap, "t", []plan.Column{a})
	root := plan.NewMulti(heap, plan.NewOutput(heap, get, "x"), plan.NewOutput(heap, get, "y"))
	m := NewMemo(root, cost.NewEstimated(memoCatalog()))
	// Groups: Get, Output(x), Output(y), Multi = 4 (Get shared).
	if len(m.Groups) != 4 {
		t.Fatalf("memo has %d groups, want 4", len(m.Groups))
	}
}

func TestInternDeduplicates(t *testing.T) {
	m := NewMemo(scanSelect(), cost.NewEstimated(memoCatalog()))
	var selExpr *MExpr
	for _, g := range m.Groups {
		for _, e := range g.Exprs {
			if e.Node.Op == plan.OpSelect {
				selExpr = e
			}
		}
	}
	// Re-intern a structurally identical select: no growth.
	clone := &RNode{
		Node:     selExpr.Node,
		Children: []RChild{GroupChild(selExpr.Children[0])},
	}
	if m.Intern(clone, selExpr.Group, selExpr, 99) {
		t.Fatal("identical expression interned as new")
	}
	if len(selExpr.Group.Exprs) != 1 {
		t.Fatalf("group grew to %d exprs", len(selExpr.Group.Exprs))
	}
}

func TestInternProvenanceChains(t *testing.T) {
	m := NewMemo(scanSelect(), cost.NewEstimated(memoCatalog()))
	var selExpr *MExpr
	for _, g := range m.Groups {
		for _, e := range g.Exprs {
			if e.Node.Op == plan.OpSelect {
				selExpr = e
			}
		}
	}
	// A rule-created variant (different predicate) records the rule in its
	// provenance.
	b := tcol(2, "b")
	variant := &RNode{
		Node: &plan.Node{
			Op:     plan.OpSelect,
			Pred:   plan.Cmp(heap, plan.OpGE, plan.ColExpr(heap, b), plan.NumExpr(heap, 5)),
			Schema: selExpr.Group.Schema,
		},
		Children: []RChild{GroupChild(selExpr.Children[0])},
	}
	if !m.Intern(variant, selExpr.Group, selExpr, 123) {
		t.Fatal("variant not interned")
	}
	ne := selExpr.Group.Exprs[len(selExpr.Group.Exprs)-1]
	if ne.RuleID != 123 {
		t.Fatalf("variant rule ID %d", ne.RuleID)
	}
	if !ne.Provenance.Equal(bitvec.New(123)) {
		t.Fatalf("variant provenance %v", ne.Provenance)
	}
	// A second derivation from the variant chains both rule IDs.
	variant2 := &RNode{
		Node: &plan.Node{
			Op:     plan.OpSelect,
			Pred:   plan.Cmp(heap, plan.OpGT, plan.ColExpr(heap, b), plan.NumExpr(heap, 4)),
			Schema: selExpr.Group.Schema,
		},
		Children: []RChild{GroupChild(selExpr.Children[0])},
	}
	if !m.Intern(variant2, ne.Group, ne, 124) {
		t.Fatal("second variant not interned")
	}
	ne2 := selExpr.Group.Exprs[len(selExpr.Group.Exprs)-1]
	if !ne2.Provenance.Equal(bitvec.New(123, 124)) {
		t.Fatalf("chained provenance %v", ne2.Provenance)
	}
}

func TestExprLimitBoundsGroup(t *testing.T) {
	m := NewMemo(scanSelect(), cost.NewEstimated(memoCatalog()))
	m.exprLimit = 3
	var selExpr *MExpr
	for _, g := range m.Groups {
		for _, e := range g.Exprs {
			if e.Node.Op == plan.OpSelect {
				selExpr = e
			}
		}
	}
	b := tcol(2, "b")
	for i := 0; i < 10; i++ {
		rn := &RNode{
			Node: &plan.Node{
				Op:     plan.OpSelect,
				Pred:   plan.Cmp(heap, plan.OpGT, plan.ColExpr(heap, b), plan.NumExpr(heap, float64(100+i))),
				Schema: selExpr.Group.Schema,
			},
			Children: []RChild{GroupChild(selExpr.Children[0])},
		}
		m.Intern(rn, selExpr.Group, selExpr, 50)
	}
	if got := len(selExpr.Group.Exprs); got > 3 {
		t.Fatalf("group grew to %d exprs past limit 3", got)
	}
}

// TestMemoBudgetRespected: a fresh memo carries the search's fixed budget,
// and once it holds totalLimit expressions Intern adds nothing more — the
// check exploration stops on.
func TestMemoBudgetRespected(t *testing.T) {
	m := NewMemo(scanSelect(), cost.NewEstimated(memoCatalog()))
	if m.exprLimit != memoExprLimit || m.totalLimit != memoTotalLimit {
		t.Fatalf("memo limits %d/%d, want %d/%d", m.exprLimit, m.totalLimit, memoExprLimit, memoTotalLimit)
	}
	budget := m.TotalExprs() + 2
	m.totalLimit = budget
	sel := findSelect(m)
	for i := 0; i < 8; i++ {
		m.Intern(selectVariant(sel, float64(100+i)), sel.Group, sel, 50)
	}
	if !m.Full() || m.TotalExprs() != budget {
		t.Fatalf("memo holds %d expressions (full=%v), budget %d", m.TotalExprs(), m.Full(), budget)
	}
}

// selectVariant builds a rule-output Select over base's child group with a
// distinct predicate constant, for interning tests.
func selectVariant(base *MExpr, c float64) *RNode {
	b := tcol(2, "b")
	return &RNode{
		Node: &plan.Node{
			Op:     plan.OpSelect,
			Pred:   plan.Cmp(heap, plan.OpGT, plan.ColExpr(heap, b), plan.NumExpr(heap, c)),
			Schema: base.Group.Schema,
		},
		Children: []RChild{GroupChild(base.Children[0])},
	}
}

func findSelect(m *Memo) *MExpr {
	for _, g := range m.Groups {
		for _, e := range g.Exprs {
			if e.Node.Op == plan.OpSelect {
				return e
			}
		}
	}
	return nil
}

// TestHashCollisionFallback degrades the interning hash to a constant so
// every new expression lands in one bucket, and verifies the key comparison
// along the chain still deduplicates exactly.
func TestHashCollisionFallback(t *testing.T) {
	m := NewMemo(scanSelect(), cost.NewEstimated(memoCatalog()))
	m.hashMask = 0 // all expressions interned from here on collide
	selExpr := findSelect(m)

	va := selectVariant(selExpr, 1000)
	if !m.Intern(va, selExpr.Group, selExpr, 50) {
		t.Fatal("variant A not interned")
	}
	// A structurally identical copy must be caught by the key comparison of
	// the shared bucket, not re-interned.
	dup := selectVariant(selExpr, 1000)
	if m.Intern(dup, selExpr.Group, selExpr, 51) {
		t.Fatal("structurally identical expression re-interned under a hash collision")
	}
	// A structurally distinct expression with the same (degraded) hash must
	// still intern as new.
	vb := selectVariant(selExpr, 2000)
	if !m.Intern(vb, selExpr.Group, selExpr, 52) {
		t.Fatal("distinct variant rejected under a hash collision")
	}
	chain := 0
	for e := m.buckets[0]; e != nil; e = e.bucketNext {
		chain++
		if e.Group != selExpr.Group {
			t.Fatalf("bucketed expr resolved to group %d, want %d", e.Group.ID, selExpr.Group.ID)
		}
	}
	if chain != 2 {
		t.Fatalf("collision bucket holds %d exprs, want 2", chain)
	}
}

// TestExprKeyInjective pins appendExprKey as the memo's statement of
// expression identity: each pair below keys apart only through one length
// prefix (or the nil-expression marker) — the comment gives the bytes both
// share once it is dropped — and the literal cases pin the number identity:
// +0 and −0 apart, every NaN payload alike. The child count is the key's
// last field, so a key stays injective without it; it is kept so that a
// field appended later cannot run into the children.
func TestExprKeyInjective(t *testing.T) {
	groups := func(ids ...int) []*Group {
		out := make([]*Group, len(ids))
		for i, id := range ids {
			out[i] = &Group{ID: GroupID(id)}
		}
		return out
	}
	cols := func(ids ...int) []plan.Column {
		out := make([]plan.Column, len(ids))
		for i, id := range ids {
			out[i] = plan.Column{ID: plan.ColumnID(id)}
		}
		return out
	}
	col := func(id int) *plan.Expr { return plan.ColExpr(heap, plan.Column{ID: plan.ColumnID(id)}) }
	and := func(args ...*plan.Expr) *plan.Expr { return &plan.Expr{Kind: plan.ExprAnd, Args: args} }
	type side struct {
		n        *plan.Node
		children []*Group
	}
	key := func(s side) []byte { return appendExprKey(nil, s.n, s.children) }
	distinct := []struct {
		name string
		a, b side
	}{
		{ // 02 02 01 00 05 00 01 01 01 00
			"projection count",
			side{&plan.Node{Op: plan.OpProject, Projs: []plan.Projection{{Out: plan.Column{ID: 2}, Expr: col(5)}}, Schema: cols(1)}, groups(0)},
			side{&plan.Node{Op: plan.OpProject, Schema: cols(1, 0)}, groups(0, 1, 1, 1, 0)},
		},
		{ // 04 01 00 02 00 00 01 00
			"group key count",
			side{&plan.Node{Op: plan.OpGroupBy, GroupKeys: cols(1), Schema: cols(0, 0)}, groups(0)},
			side{&plan.Node{Op: plan.OpGroupBy, Aggs: []plan.Agg{{Out: plan.Column{ID: 2}}}}, groups(0)},
		},
		{ // 04 00 00 03 00 00 00
			"aggregate count",
			side{&plan.Node{Op: plan.OpGroupBy, Aggs: []plan.Agg{{Out: plan.Column{ID: 3}}}}, nil},
			side{&plan.Node{Op: plan.OpGroupBy}, groups(0, 0, 0)},
		},
		{ // 07 00 01 00 01 00
			"reduce key count",
			side{&plan.Node{Op: plan.OpReduce, ReduceKeys: cols(1)}, groups(0)},
			side{&plan.Node{Op: plan.OpReduce, Schema: cols(0)}, groups(0)},
		},
		{ // 08 00 02 00 00 01 00
			"sort key count",
			side{&plan.Node{Op: plan.OpTop, SortKeys: []plan.SortKey{{Col: plan.Column{ID: 2}}}}, groups(0)},
			side{&plan.Node{Op: plan.OpTop, Schema: cols(0, 0)}, groups(0)},
		},
		{ // 01 00 01 00
			"schema count",
			side{&plan.Node{Op: plan.OpSelect, Schema: cols(1)}, nil},
			side{&plan.Node{Op: plan.OpSelect}, groups(0)},
		},
		{ // 01 01 03 01 00 02 00 00
			"argument count",
			side{&plan.Node{Op: plan.OpSelect, Pred: and(col(2))}, nil},
			side{&plan.Node{Op: plan.OpSelect, Pred: and(), Schema: cols(0)}, groups(0, 0)},
		},
		{ // 01 00 03 00 00 00
			"nil expression marker",
			side{&plan.Node{Op: plan.OpSelect}, groups(0, 0, 0)},
			side{&plan.Node{Op: plan.OpSelect, Pred: col(3)}, nil},
		},
		{
			"signed zero",
			side{&plan.Node{Op: plan.OpSelect, Pred: plan.NumExpr(heap, 0)}, nil},
			side{&plan.Node{Op: plan.OpSelect, Pred: plan.NumExpr(heap, math.Copysign(0, -1))}, nil},
		},
	}
	for _, c := range distinct {
		if ka, kb := key(c.a), key(c.b); bytes.Equal(ka, kb) {
			t.Errorf("%s: distinct expressions share the key %x", c.name, ka)
		}
	}
	nan1 := side{&plan.Node{Op: plan.OpSelect, Pred: plan.NumExpr(heap, math.NaN())}, nil}
	nan2 := side{&plan.Node{Op: plan.OpSelect, Pred: plan.NumExpr(heap, math.Float64frombits(0x7ff8000000000000))}, nil}
	if ka, kb := key(nan1), key(nan2); !bytes.Equal(ka, kb) {
		t.Errorf("NaN payloads key apart: %x vs %x", ka, kb)
	}
}

func TestNewColIDFresh(t *testing.T) {
	m := NewMemo(scanSelect(), cost.NewEstimated(memoCatalog()))
	id1 := m.NewColID()
	id2 := m.NewColID()
	if id1 == id2 {
		t.Fatal("NewColID repeated an ID")
	}
	// Fresh IDs never collide with bound plan columns (max bound ID is 2).
	if id1 <= 2 {
		t.Fatalf("fresh ID %d collides with bound columns", id1)
	}
}

func TestRuleSetValidation(t *testing.T) {
	dup := []RuleInfo{
		{ID: 5, Name: "A", Category: OnByDefault},
		{ID: 5, Name: "B", Category: OnByDefault},
	}
	if _, err := NewRuleSet(nil, nil, dup); err == nil {
		t.Fatal("duplicate rule IDs accepted")
	}
	oob := []RuleInfo{{ID: 999, Name: "X", Category: OnByDefault}}
	if _, err := NewRuleSet(nil, nil, oob); err == nil {
		t.Fatal("out-of-range rule ID accepted")
	}
}

func TestDefaultConfigCategories(t *testing.T) {
	infos := []RuleInfo{
		{ID: 1, Name: "req", Category: Required},
		{ID: 2, Name: "off", Category: OffByDefault},
		{ID: 3, Name: "on", Category: OnByDefault},
		{ID: 4, Name: "impl", Category: Implementation},
	}
	rs, err := NewRuleSet(nil, nil, infos)
	if err != nil {
		t.Fatal(err)
	}
	cfg := rs.DefaultConfig()
	if !cfg.Get(1) || cfg.Get(2) || !cfg.Get(3) || !cfg.Get(4) {
		t.Fatalf("default config %v", cfg)
	}
	ids := rs.NonRequired().Ones()
	if len(ids) != 3 {
		t.Fatalf("non-required IDs %v", ids)
	}
}

// TestRuleSetNames: known IDs take their catalog name, an unknown one (a
// stray bit) "rule#<id>", in the order given; no IDs give an empty list.
func TestRuleSetNames(t *testing.T) {
	rs, err := NewRuleSet(nil, nil, []RuleInfo{
		{ID: 1, Name: "req", Category: Required},
		{ID: 7, Name: "on", Category: OnByDefault},
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		ids  []int
		want []string
	}{
		{[]int{7, 1}, []string{"on", "req"}},
		{[]int{1, 200, 7}, []string{"req", "rule#200", "on"}},
		{nil, []string{}},
	} {
		if got := rs.Names(tc.ids); !slices.Equal(got, tc.want) {
			t.Errorf("Names(%v) = %q, want %q", tc.ids, got, tc.want)
		}
	}
}
