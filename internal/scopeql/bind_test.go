package scopeql

import (
	"strings"
	"testing"

	"steerq/internal/catalog"
	"steerq/internal/plan"
)

func bindCatalog() *catalog.Catalog {
	cat := catalog.New()
	cat.AddStream(&catalog.Stream{
		Name: "lake/orders",
		Columns: []catalog.Column{
			{Name: "user_id", Distinct: 1000, TrueDistinct: 1000, Max: 1000},
			{Name: "amount", Distinct: 500, TrueDistinct: 500, Max: 100},
			{Name: "region", Distinct: 10, TrueDistinct: 10, Max: 10},
		},
		BaseRows: 1e6, BytesPerRow: 50, GrowthPerDay: 1,
	})
	cat.AddStream(&catalog.Stream{
		Name: "lake/users",
		Columns: []catalog.Column{
			{Name: "user_id", Distinct: 1000, TrueDistinct: 1000, Max: 1000},
			{Name: "segment", Distinct: 5, TrueDistinct: 5, Max: 5},
		},
		BaseRows: 1000, BytesPerRow: 30, GrowthPerDay: 1,
	})
	cat.AddUDO(&catalog.UDO{Name: "Cook", EstFactor: 1, TrueFactor: 2, CPUPerRow: 1})
	return cat
}

func mustBind(t *testing.T, src string) *plan.Node {
	t.Helper()
	root, err := Compile(src, bindCatalog())
	if err != nil {
		t.Fatalf("Compile: %v", err)
	}
	return root
}

func TestBindSimpleSelect(t *testing.T) {
	root := mustBind(t, `
x = SELECT user_id, amount FROM "lake/orders" WHERE amount > 10;
OUTPUT x TO "o";`)
	if root.Op != plan.OpOutput {
		t.Fatalf("root is %v, want Output", root.Op)
	}
	var ops []plan.Op
	root.Walk(func(n *plan.Node) { ops = append(ops, n.Op) })
	want := []plan.Op{plan.OpOutput, plan.OpProject, plan.OpSelect, plan.OpGet}
	if len(ops) != len(want) {
		t.Fatalf("ops = %v, want %v", ops, want)
	}
	for i := range want {
		if ops[i] != want[i] {
			t.Fatalf("ops = %v, want %v", ops, want)
		}
	}
}

func TestBindColumnLineage(t *testing.T) {
	root := mustBind(t, `
x = SELECT user_id FROM "lake/orders";
OUTPUT x TO "o";`)
	col := root.Schema[0]
	if col.Source != "lake/orders.user_id" {
		t.Fatalf("lineage %q", col.Source)
	}
}

func TestBindJoinQualified(t *testing.T) {
	root := mustBind(t, `
o = SELECT user_id, amount FROM "lake/orders";
j = SELECT o.user_id AS uid, u.segment AS seg FROM o INNER JOIN "lake/users" AS u ON o.user_id == u.user_id;
OUTPUT j TO "out";`)
	var join *plan.Node
	root.Walk(func(n *plan.Node) {
		if n.Op == plan.OpJoin {
			join = n
		}
	})
	if join == nil {
		t.Fatal("no join node")
	}
	a, b, ok := join.Pred.EquiJoinSides()
	if !ok {
		t.Fatalf("join predicate %v is not an equi join", join.Pred)
	}
	if a.ID == b.ID {
		t.Fatal("join sides resolved to the same column")
	}
}

func TestBindAmbiguousColumn(t *testing.T) {
	_, err := Compile(`
o = SELECT user_id FROM "lake/orders";
j = SELECT user_id FROM o INNER JOIN "lake/users" AS u ON o.user_id == u.user_id;
OUTPUT j TO "out";`, bindCatalog())
	if err == nil || !strings.Contains(err.Error(), "ambiguous") {
		t.Fatalf("want ambiguity error, got %v", err)
	}
}

func TestBindSelfJoinClonesColumns(t *testing.T) {
	root := mustBind(t, `
o = SELECT user_id, amount FROM "lake/orders";
j = SELECT a.user_id AS uid, b.amount AS amt FROM o AS a INNER JOIN o AS b ON a.user_id == b.user_id;
OUTPUT j TO "out";`)
	var join *plan.Node
	root.Walk(func(n *plan.Node) {
		if n.Op == plan.OpJoin {
			join = n
		}
	})
	seen := make(map[plan.ColumnID]int)
	for _, c := range join.Schema {
		seen[c.ID]++
	}
	for id, n := range seen {
		if n > 1 {
			t.Fatalf("column %d appears %d times in self-join schema", id, n)
		}
	}
}

func TestBindMultiOutputSharesDAG(t *testing.T) {
	root := mustBind(t, `
f = SELECT user_id, amount FROM "lake/orders" WHERE amount > 5;
a = SELECT user_id, SUM(amount) AS total FROM f GROUP BY user_id;
OUTPUT f TO "raw";
OUTPUT a TO "agg";`)
	if root.Op != plan.OpMulti {
		t.Fatalf("root %v, want Multi", root.Op)
	}
	// The filtered node must appear exactly once in the DAG (shared).
	selects := 0
	root.Walk(func(n *plan.Node) {
		if n.Op == plan.OpSelect {
			selects++
		}
	})
	if selects != 1 {
		t.Fatalf("filter duplicated: %d Select nodes", selects)
	}
}

func TestBindGroupByValidation(t *testing.T) {
	_, err := Compile(`
x = SELECT region, amount FROM "lake/orders" GROUP BY region;
OUTPUT x TO "o";`, bindCatalog())
	if err == nil || !strings.Contains(err.Error(), "GROUP BY") {
		t.Fatalf("want group-by validation error, got %v", err)
	}
}

func TestBindGroupByHaving(t *testing.T) {
	root := mustBind(t, `
x = SELECT region, COUNT(*) AS cnt FROM "lake/orders" GROUP BY region HAVING cnt > 5;
OUTPUT x TO "o";`)
	var haveSelect, haveGroup bool
	root.Walk(func(n *plan.Node) {
		switch n.Op {
		case plan.OpSelect:
			haveSelect = true
		case plan.OpGroupBy:
			haveGroup = true
		}
	})
	if !haveSelect || !haveGroup {
		t.Fatal("HAVING did not produce Select above GroupBy")
	}
}

func TestBindErrors(t *testing.T) {
	cases := map[string]string{
		"unknown stream":    `x = SELECT a FROM "nope"; OUTPUT x TO "o";`,
		"unknown column":    `x = SELECT nope FROM "lake/orders"; OUTPUT x TO "o";`,
		"unbound var":       `x = SELECT user_id FROM missing; OUTPUT x TO "o";`,
		"unbound output":    `OUTPUT missing TO "o";`,
		"reassignment":      `x = SELECT user_id FROM "lake/orders"; x = SELECT user_id FROM "lake/orders"; OUTPUT x TO "o";`,
		"no output":         `x = SELECT user_id FROM "lake/orders";`,
		"union arity":       `a = SELECT user_id FROM "lake/orders"; b = SELECT user_id, amount FROM "lake/orders"; u = a UNION ALL b; OUTPUT u TO "o";`,
		"unknown UDO":       `x = PROCESS ("lake/orders" is wrong anyway) USING Nope; OUTPUT x TO "o";`,
		"order without top": `x = SELECT user_id FROM "lake/orders" ORDER BY user_id; OUTPUT x TO "o";`,
		"star with group":   `x = SELECT * FROM "lake/orders" GROUP BY region; OUTPUT x TO "o";`,
		"agg outside group": `x = SELECT user_id, amount FROM "lake/orders" WHERE SUM(amount) > 5; OUTPUT x TO "o";`,
	}
	cat := bindCatalog()
	for name, src := range cases {
		if _, err := Compile(src, cat); err == nil {
			t.Errorf("%s: Compile succeeded, want error", name)
		}
	}
}

func TestBindExtract(t *testing.T) {
	root := mustBind(t, `
e = EXTRACT user_id, region FROM "lake/orders";
OUTPUT e TO "o";`)
	var get *plan.Node
	root.Walk(func(n *plan.Node) {
		if n.Op == plan.OpGet {
			get = n
		}
	})
	if get == nil || len(get.Schema) != 2 {
		t.Fatalf("extract schema wrong: %v", get)
	}
}

func TestBindProcessReduce(t *testing.T) {
	root := mustBind(t, `
f = SELECT user_id, amount FROM "lake/orders";
p = PROCESS f USING Cook;
rj = REDUCE p ON user_id USING Cook;
OUTPUT rj TO "o";`)
	var haveProcess, haveReduce bool
	root.Walk(func(n *plan.Node) {
		switch n.Op {
		case plan.OpProcess:
			haveProcess = true
		case plan.OpReduce:
			haveReduce = true
			if len(n.ReduceKeys) != 1 || n.ReduceKeys[0].Name != "user_id" {
				t.Errorf("reduce keys %v", n.ReduceKeys)
			}
		}
	})
	if !haveProcess || !haveReduce {
		t.Fatal("PROCESS/REDUCE not bound")
	}
}

func TestBindTopWithoutOrderBy(t *testing.T) {
	root := mustBind(t, `
x = SELECT TOP 5 user_id FROM "lake/orders";
OUTPUT x TO "o";`)
	var top *plan.Node
	root.Walk(func(n *plan.Node) {
		if n.Op == plan.OpTop {
			top = n
		}
	})
	if top == nil || top.TopN != 5 || len(top.SortKeys) == 0 {
		t.Fatalf("TOP without ORDER BY bound wrong: %+v", top)
	}
}

// TestBoundPlanClipsSlicesAndQualifiesSources: every slice a plan the
// compile corpus binds holds is clipped to its length, so no holder can
// append into memory a neighbour owns, and a Get's column sources read
// "stream.col".
func TestBoundPlanClipsSlicesAndQualifiesSources(t *testing.T) {
	cat := bindCatalog()
	bound := 0
	for _, src := range compileCorpus {
		root, err := Compile(src, cat)
		if err != nil {
			continue
		}
		bound++
		clipped := func(what string, n int, c int) {
			if n != c {
				t.Errorf("%s has length %d, capacity %d\ninput:\n%s", what, n, c, src)
			}
		}
		var checkExpr func(e *plan.Expr)
		checkExpr = func(e *plan.Expr) {
			if e == nil {
				return
			}
			clipped("expression arguments", len(e.Args), cap(e.Args))
			for _, a := range e.Args {
				checkExpr(a)
			}
		}
		root.Walk(func(n *plan.Node) {
			if n.Op == plan.OpGet {
				for _, c := range n.Schema {
					if c.Source != n.Table+"."+c.Name {
						t.Errorf("column %v of Get(%s) has source %q", c, n.Table, c.Source)
					}
				}
			}
			clipped(n.Op.String()+" children", len(n.Children), cap(n.Children))
			clipped(n.Op.String()+" schema", len(n.Schema), cap(n.Schema))
			clipped(n.Op.String()+" projections", len(n.Projs), cap(n.Projs))
			clipped(n.Op.String()+" group keys", len(n.GroupKeys), cap(n.GroupKeys))
			clipped(n.Op.String()+" aggregates", len(n.Aggs), cap(n.Aggs))
			clipped(n.Op.String()+" reduce keys", len(n.ReduceKeys), cap(n.ReduceKeys))
			clipped(n.Op.String()+" sort keys", len(n.SortKeys), cap(n.SortKeys))
			checkExpr(n.Pred)
			for _, p := range n.Projs {
				checkExpr(p.Expr)
			}
			for _, a := range n.Aggs {
				checkExpr(a.Arg)
			}
		})
	}
	if bound < 5 {
		t.Fatalf("only %d corpus scripts bind", bound)
	}
}
