package scopeql

import (
	"fmt"
	"strings"
	"sync"
	"testing"

	"steerq/internal/catalog"
)

// compileCorpus interleaves scripts that bind against bindCatalog with ones
// that fail in the lexer, the parser and the binder (early and after a
// subquery, a join and a grouped SELECT have been carved), so a recycled
// scratch meets every exit path. One binds a chained AND of four arms around
// an OR of three, so the flattened junction argument lists meet sizePlan.
var compileCorpus = []string{
	frontEndScript,
	`x = SELECT user_id FROM "lake/orders" WHERE amount > 1.5 OR region != "EU"; OUTPUT x TO "o";`,
	`x = SELECT a FROM "lake/orders" ; OUTPUT x TO "o";`,
	`e = EXTRACT user_id, region FROM "lake/orders"; r = REDUCE e ON user_id USING Cook; OUTPUT r TO "o";`,
	`x = SELECT user_id FROM "lake/orders"`,
	`o = SELECT user_id, amount FROM "lake/orders";
j = SELECT a.user_id AS uid, b.amount AS amt FROM o AS a INNER JOIN o AS b ON a.user_id == b.user_id;
u = j UNION ALL (SELECT uid, amt FROM j);
OUTPUT u TO "u"; OUTPUT o TO "o";`,
	"x = SELECT \"unterminated FROM t;",
	`s = SELECT s.user_id AS k FROM (SELECT user_id FROM "lake/orders" WHERE amount * 2 > region + 1) AS s INNER JOIN "lake/users" AS u ON s.user_id == u.user_id; g = SELECT k, COUNT(*) AS c FROM s GROUP BY k HAVING c > 2; t = SELECT TOP 3 k FROM g ORDER BY k DESC; OUTPUT t TO "t"; OUTPUT bogus TO "b";`,
	`f = SELECT user_id, SUM(amount) AS total FROM "lake/orders" GROUP BY user_id; p = PROCESS (SELECT * FROM f) USING Cook; OUTPUT p TO "p"; OUTPUT f TO "f";`,
	`x = SELECT region, amount FROM "lake/orders" GROUP BY region; OUTPUT x TO "o";`,
	`x = SELECT region, COUNT(*) AS c, SUM(amount) FROM "lake/orders" GROUP BY region; y = SELECT TOP 2 region, amount * 2 FROM "lake/orders"; e = EXTRACT region, amount FROM "lake/orders"; z = SELECT region FROM e WHERE amount > 1 AND region < 3 AND (amount == 2 OR amount != 4 OR region >= 1) AND amount - 1 <= region / 2; OUTPUT x TO "x"; OUTPUT y TO "y"; OUTPUT z TO "z";`,
	"x = SELECT user_id FROM \"lake/orders\" WHERE amount ≠ 1;",
	`x = SELECT user_id FROM "lake/orders"; x = SELECT user_id FROM "lake/orders"; OUTPUT x TO "o";`,
}

// TestCompileScratchReuse: eight goroutines compile the interleaved corpus
// twenty times over on the pooled scratches at once, each from its own
// offset, and every result must match the fresh path's (compileDiff). Run
// with -race.
func TestCompileScratchReuse(t *testing.T) {
	cat := bindCatalog()
	ok := 0
	for _, src := range compileCorpus {
		if s, err := Parse(src); err == nil {
			if _, err := Bind(s, cat); err == nil {
				ok++
			}
		}
	}
	if ok == 0 || ok == len(compileCorpus) {
		t.Fatalf("%d of %d corpus scripts bind; the corpus must mix good and failing ones", ok, len(compileCorpus))
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 20*len(compileCorpus); i++ {
				src := compileCorpus[(g+i)%len(compileCorpus)]
				root, err := Compile(src, cat)
				if d := compileDiff(src, root, err, cat); d != "" {
					t.Errorf("goroutine %d: %s\ninput:\n%s", g, d, src)
					return
				}
			}
		}()
	}
	wg.Wait()
}

// planPilesDiff describes how the plan piles sc's last bind carved from
// differ from what planSize counted for it: each pile must hold one array,
// filled to its capacity, of exactly the counted length. It returns "" when
// they agree.
func planPilesDiff(sc *scratch, z planSize) string {
	var d []string
	check := func(name string, n, c, want int) {
		if n != want || c != want {
			d = append(d, fmt.Sprintf("%s: carved %d of an array of %d, planSize counts %d", name, n, c, want))
		}
	}
	check("nodes", len(sc.nodes.buf), cap(sc.nodes.buf), z.nodes)
	check("exprs", len(sc.exprs.buf), cap(sc.exprs.buf), z.exprs)
	check("columns", len(sc.columns.buf), cap(sc.columns.buf), z.columns)
	check("kids", len(sc.kids.buf), cap(sc.kids.buf), z.kids)
	check("args", len(sc.args.buf), cap(sc.args.buf), z.args)
	check("projs", len(sc.projs.buf), cap(sc.projs.buf), z.projs)
	check("aggs", len(sc.aggs.buf), cap(sc.aggs.buf), z.aggs)
	check("sortKeys", len(sc.sortKeys.buf), cap(sc.sortKeys.buf), z.sortKeys)
	return strings.Join(d, "; ")
}

// bindCounted parses and binds src on a fresh scratch, as compile does, and
// returns the scratch before release with planSize's count of the script.
func bindCounted(src string, cat *catalog.Catalog) (*scratch, planSize, error) {
	sc := new(scratch)
	s, err := sc.parse(src)
	if err != nil {
		return nil, planSize{}, err
	}
	z := sizePlan(s, cat, make(map[string]int))
	if _, err := sc.bind(s, cat); err != nil {
		return nil, planSize{}, err
	}
	return sc, z, nil
}

// TestPlanSizeIsExact: for every script of the compile corpus and the fuzz
// seeds that binds, each plan pile takes one array that planSize sized
// exactly — a miscount shows as a second array or an unfilled one.
func TestPlanSizeIsExact(t *testing.T) {
	cat := bindCatalog()
	bound := 0
	for _, src := range append(compileCorpus, fuzzSeeds...) {
		src = strings.ReplaceAll(src, "lake/t", "lake/orders")
		sc, z, err := bindCounted(src, cat)
		if err != nil {
			continue
		}
		bound++
		if d := planPilesDiff(sc, z); d != "" {
			t.Errorf("%s\ninput:\n%s", d, src)
		}
	}
	if bound < 5 {
		t.Fatalf("only %d scripts bind", bound)
	}
}
