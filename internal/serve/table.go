package serve

import (
	"steerq/internal/bitvec"
	"steerq/internal/bundle"
)

// Kind classifies how a lookup resolved.
type Kind uint8

const (
	// KindHit is a steered decision: the signature matched an entry whose
	// configuration differs from (or was discovered for) its group.
	KindHit Kind = iota
	// KindFallback is a deliberate default: the offline pipeline analyzed
	// this group and found no improvement, so the bundle pins it to the
	// default configuration explicitly.
	KindFallback
	// KindDefault is a miss: the signature matched no entry and resolved to
	// the bundle's default configuration.
	KindDefault
)

// kindNames are the wire names of the kinds, indexed by Kind.
var kindNames = [...]string{"hit", "fallback", "default"}

// String renders the kind's wire name ("hit", "fallback" or "default").
func (k Kind) String() string {
	if int(k) < len(kindNames) {
		return kindNames[k]
	}
	return "default"
}

// ParseKind maps a wire name back to its Kind (false for unknown names).
func ParseKind(s string) (Kind, bool) {
	for i, n := range kindNames {
		if n == s {
			return Kind(i), true
		}
	}
	return KindDefault, false
}

// Decision is one resolved lookup: the configuration to compile under, the
// bundle version that decided it, and how it resolved. Version and Config
// always come from the same table — the atomic swap makes a torn pair
// impossible.
type Decision struct {
	Config  bitvec.Vector
	Version uint64
	Kind    Kind
}

// tableEntry is one decision held by a Table.
type tableEntry struct {
	config   bitvec.Vector
	fallback bool
}

// Table is one bundle compiled into an immutable in-memory decision table.
// After NewTable returns, a Table is only ever read, which is what makes a
// bare atomic pointer swap a sufficient concurrency protocol (no lock on
// the lookup path) and lookups allocation-free.
type Table struct {
	version     uint64
	createdUnix int64
	checksum    uint64
	workload    string
	def         bitvec.Vector
	entries     map[bitvec.Key]tableEntry
}

// NewTable compiles a decoded bundle into a decision table. The bundle's
// decoder has already rejected duplicate signatures, so the map build is
// total.
func NewTable(b *bundle.Bundle) *Table {
	t := &Table{
		version:     b.Version,
		createdUnix: b.CreatedUnix,
		checksum:    b.Checksum(),
		workload:    b.Workload,
		def:         b.Default,
		entries:     make(map[bitvec.Key]tableEntry, len(b.Entries)),
	}
	for _, e := range b.Entries {
		t.entries[e.Signature.Key()] = tableEntry{config: e.Config, fallback: e.Fallback}
	}
	return t
}

// Lookup resolves one default rule signature. It is total: a signature with
// no entry resolves to the table's default configuration with KindDefault.
func (t *Table) Lookup(sig bitvec.Vector) Decision {
	if e, ok := t.entries[sig.Key()]; ok {
		kind := KindHit
		if e.fallback {
			kind = KindFallback
		}
		return Decision{Config: e.config, Version: t.version, Kind: kind}
	}
	return Decision{Config: t.def, Version: t.version, Kind: KindDefault}
}

// Version reports the bundle version the table was built from.
func (t *Table) Version() uint64 { return t.version }

// Checksum reports the content hash of the bundle the table was built from.
func (t *Table) Checksum() uint64 { return t.checksum }

// Workload reports the workload the bundle was discovered on.
func (t *Table) Workload() string { return t.workload }

// Len reports the number of explicit entries (hits plus fallbacks).
func (t *Table) Len() int { return len(t.entries) }

// Default reports the table's default configuration.
func (t *Table) Default() bitvec.Vector { return t.def }
