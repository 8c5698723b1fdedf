package cascades

import (
	"fmt"
	"testing"

	"steerq/internal/bitvec"
	"steerq/internal/catalog"
	"steerq/internal/cost"
	"steerq/internal/plan"
)

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
	get := plan.NewGet("t", []plan.Column{a, b})
	sel := plan.NewSelect(get, plan.Cmp(plan.OpGT, plan.ColExpr(b), plan.NumExpr(5)))
	return plan.NewOutput(sel, "o")
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
	get := plan.NewGet("t", []plan.Column{a})
	root := plan.NewMulti(plan.NewOutput(get, "x"), plan.NewOutput(get, "y"))
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
			Pred:   plan.Cmp(plan.OpGE, plan.ColExpr(b), plan.NumExpr(5)),
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
			Pred:   plan.Cmp(plan.OpGT, plan.ColExpr(b), plan.NumExpr(4)),
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
	m.ExprLimit = 3
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
				Pred:   plan.Cmp(plan.OpGT, plan.ColExpr(b), plan.NumExpr(float64(100+i))),
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

// selectVariant builds a rule-output Select over base's child group with a
// distinct predicate constant, for interning tests.
func selectVariant(base *MExpr, c float64) *RNode {
	b := tcol(2, "b")
	return &RNode{
		Node: &plan.Node{
			Op:     plan.OpSelect,
			Pred:   plan.Cmp(plan.OpGT, plan.ColExpr(b), plan.NumExpr(c)),
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
// every new expression lands in one bucket, and verifies the
// structural-equality fallback still deduplicates exactly.
func TestHashCollisionFallback(t *testing.T) {
	m := NewMemo(scanSelect(), cost.NewEstimated(memoCatalog()))
	m.hashMask = 0 // all expressions interned from here on collide
	selExpr := findSelect(m)

	va := selectVariant(selExpr, 1000)
	if !m.Intern(va, selExpr.Group, selExpr, 50) {
		t.Fatal("variant A not interned")
	}
	// A structurally identical copy must be caught by the equality scan of
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
	ids := rs.NonRequiredIDs()
	if len(ids) != 3 {
		t.Fatalf("non-required IDs %v", ids)
	}
}
