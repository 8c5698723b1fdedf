package plan

import (
	"strings"
	"testing"
)

func physChain() *PhysNode {
	k := Column{ID: 1, Name: "k", Source: "s.k"}
	schema := []Column{k}
	scan := &PhysNode{Op: PhysExtract, Table: "s", Schema: schema, RuleID: 3,
		Dist: Distribution{Kind: DistRandom, DOP: 8}, EstRows: 1e6, EstCost: 2}
	ex := &PhysNode{Op: PhysExchange, Exchange: ExchangeShuffle, Schema: schema, RuleID: 0,
		Children: []*PhysNode{scan},
		Dist:     Distribution{Kind: DistHash, Keys: []ColumnID{1}, DOP: 8}, EstRows: 1e6, EstCost: 1}
	agg := &PhysNode{Op: PhysHashAgg, Schema: schema, GroupKeys: schema, RuleID: 228,
		Children: []*PhysNode{ex},
		Dist:     Distribution{Kind: DistHash, Keys: []ColumnID{1}, DOP: 8}, EstRows: 100, EstCost: 5}
	out := &PhysNode{Op: PhysOutputImpl, OutputPath: "o", Schema: schema, RuleID: 2,
		Children: []*PhysNode{agg},
		Dist:     Distribution{Kind: DistHash, Keys: []ColumnID{1}, DOP: 8}, EstRows: 100, EstCost: 1}
	return out
}

func TestPhysCountAndWalk(t *testing.T) {
	p := physChain()
	if p.Count() != 4 {
		t.Fatalf("Count = %d", p.Count())
	}
	// Shared nodes counted once.
	shared := p.Children[0]
	multi := &PhysNode{Op: PhysMultiImpl, Children: []*PhysNode{p, shared}, RuleID: 6,
		Dist: Distribution{Kind: DistSingleton, DOP: 1}}
	if multi.Count() != 5 {
		t.Fatalf("shared Count = %d, want 5", multi.Count())
	}
}

func TestPhysString(t *testing.T) {
	s := physChain().String()
	for _, want := range []string{"OutputImpl(o)", "HashAgg", "Exchange(shuffle)", "Extract(s)", "hash(1)x8"} {
		if !strings.Contains(s, want) {
			t.Errorf("physical plan string missing %q:\n%s", want, s)
		}
	}
}

func TestExchangeKindStrings(t *testing.T) {
	cases := map[ExchangeKind]string{
		ExchangeShuffle:   "shuffle",
		ExchangeBroadcast: "broadcast",
		ExchangeGather:    "gather",
		ExchangeInitial:   "initial",
	}
	for k, want := range cases {
		if k.String() != want {
			t.Errorf("%d.String() = %q", k, k.String())
		}
	}
}

func TestPhysOpStringsDistinct(t *testing.T) {
	seen := make(map[string]bool)
	for op := PhysExtract; op <= PhysRangeScan; op++ {
		s := op.String()
		if s == "" || seen[s] {
			t.Fatalf("physical op %d has empty or duplicate name %q", op, s)
		}
		seen[s] = true
	}
}
