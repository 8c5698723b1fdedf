package scopeql

import "testing"

// frontEndScript is a multi-statement script in the shape of the generated
// workloads' (filter, join, grouped aggregate, user-defined operator,
// output). The test cannot generate one: the workload package imports this
// one.
const frontEndScript = `f = SELECT user_id, amount FROM "lake/orders" WHERE amount > 56.18 AND region == 4;
-- attach each order's customer segment
j = SELECT f.user_id AS user_id, u.segment AS segment, f.amount AS amount FROM f INNER JOIN "lake/users" AS u ON f.user_id == u.user_id;
a = SELECT segment, SUM(amount) AS total, COUNT(*) AS cnt FROM j GROUP BY segment HAVING cnt >= 3;
t = SELECT TOP 10 segment, total FROM a ORDER BY total DESC;
p = PROCESS t USING Cook;
OUTPUT p TO "out/segment_totals";
`

// TestFrontEndAllocationBudget pins the front end's allocations per script:
// Lex allocates its token slice and nothing else (token texts alias the
// source or shared constants), and a warm Compile allocates only the plan it
// returns — one array per plan pile (nodes, expressions, columns, child
// lists, argument lists, projections, aggregates, sort keys), which this
// script all uses — while the tokens, the AST and the binder's variable
// table live in the recycled scratch. Compile's count is measured on a scratch the test holds, not one
// from the pool, so it does not depend on whether the pool kept a Put (under
// -race it drops a random quarter of them).
func TestFrontEndAllocationBudget(t *testing.T) {
	cat := bindCatalog()
	if _, err := Compile(frontEndScript, cat); err != nil {
		t.Fatalf("compile: %v", err)
	}
	lex := testing.AllocsPerRun(20, func() {
		if _, err := Lex(frontEndScript); err != nil {
			t.Errorf("lex: %v", err)
		}
	})
	sc := new(scratch)
	compile := testing.AllocsPerRun(20, func() {
		if _, err := sc.compile(frontEndScript, cat); err != nil {
			t.Errorf("compile: %v", err)
		}
		sc.release()
	})
	// A change that lowers the count lowers this constant.
	const wantCompile = 8
	t.Logf("allocs per script: Lex %.0f, Compile %.0f", lex, compile)
	if lex != 1 {
		t.Errorf("Lex allocates %.0f times per script, want 1 (the token slice)", lex)
	}
	if compile != wantCompile {
		t.Errorf("Compile allocates %.0f times per script, want %d", compile, wantCompile)
	}
}
