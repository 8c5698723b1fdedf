package serve

import (
	"testing"

	"steerq/internal/bitvec"
)

func TestTableLookupKinds(t *testing.T) {
	b := testBundle(t, 7, 6)
	tab := NewTable(b)

	if tab.Version() != 7 || tab.Workload() != "W" || tab.Len() != 6 {
		t.Fatalf("table metadata: version=%d workload=%q len=%d",
			tab.Version(), tab.Workload(), tab.Len())
	}
	if tab.Checksum() != b.Checksum() {
		t.Fatalf("table checksum %x != bundle checksum %x", tab.Checksum(), b.Checksum())
	}

	for i, e := range b.Entries {
		d := tab.Lookup(e.Signature)
		if d.Version != 7 {
			t.Fatalf("entry %d: version %d", i, d.Version)
		}
		if !d.Config.Equal(e.Config) {
			t.Fatalf("entry %d: config %s != %s", i, d.Config.Hex(), e.Config.Hex())
		}
		want := KindHit
		if e.Fallback {
			want = KindFallback
		}
		if d.Kind != want {
			t.Fatalf("entry %d: kind %v, want %v", i, d.Kind, want)
		}
	}

	// A signature with no entry is a total miss: default config, KindDefault.
	miss := tab.Lookup(vec(255))
	if miss.Kind != KindDefault || !miss.Config.Equal(b.Default) || miss.Version != 7 {
		t.Fatalf("miss decision: %+v", miss)
	}
	var zero bitvec.Vector
	if d := tab.Lookup(zero); d.Kind != KindDefault {
		t.Fatalf("zero-signature lookup kind %v", d.Kind)
	}
}

func TestKindWireNames(t *testing.T) {
	for _, k := range []Kind{KindHit, KindFallback, KindDefault} {
		got, ok := ParseKind(k.String())
		if !ok || got != k {
			t.Fatalf("ParseKind(%q) = %v, %v", k.String(), got, ok)
		}
	}
	if _, ok := ParseKind("bogus"); ok {
		t.Fatal("ParseKind accepted unknown name")
	}
	if s := Kind(99).String(); s != "default" {
		t.Fatalf("out-of-range kind renders %q", s)
	}
}
