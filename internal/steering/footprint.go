package steering

import "steerq/internal/bitvec"

// FootprintClasses partitions candidate configurations into rule-equivalence
// classes by decision footprint.
//
// A compile's footprint (cascades.Result.Footprint) is the set of rule IDs
// whose enabled-bit the search read. The search tree branches only on those
// reads, so two configurations that agree on every footprint bit take the
// exact same path through the optimizer and provably produce byte-identical
// results — plan, cost, signature, even the footprint itself. The classifier
// exploits this: once one representative of a class is compiled, every other
// configuration projecting onto the same (footprint, projected-key) pair
// shares the outcome without compiling. Measured, kept (EXPERIMENTS.md
// "Prove-or-delete"): the classes avoid 12.6 % of a cold discovery pass's
// candidate compiles (the benchmark's steering.fp_avoided_share on
// discover_cold).
//
// Classes are indexed the way the compile cache indexes one job's entries
// (jobEntry): one map per distinct footprint — a job's candidates share a
// handful — with the footprints scanned in admission order on lookup. The
// zero value is ready to use; the struct is not safe for concurrent use (each
// analysis owns one and resolves its candidates serially).
type FootprintClasses struct {
	job jobEntry
	n   int
}

// Len returns the number of admitted classes.
func (fc *FootprintClasses) Len() int { return fc.n }

// Lookup returns the shared outcome of cfg's equivalence class, if one has
// been admitted: a class whose footprint projection of cfg matches its
// representative's (were several to match, they would carry one value). An
// empty footprint matches every configuration — correctly so: a compile that
// read no enabled-bits behaves identically under all of them.
func (fc *FootprintClasses) Lookup(cfg bitvec.Vector) (CompileValue, bool) {
	if slot := fc.job.lookup(cfg); slot != nil {
		return slot.val, true
	}
	return CompileValue{}, false
}

// Admit registers cfg's class with the outcome of compiling cfg, and
// reports whether a new class was created. Admitting a configuration whose
// class is already present is a no-op (compilation is deterministic, so the
// value would be identical), which keeps Len an exact class count.
func (fc *FootprintClasses) Admit(cfg bitvec.Vector, v CompileValue) bool {
	fe := fc.job.entry(v.Footprint)
	k := cfg.And(v.Footprint).Key()
	if _, ok := fe.vals[k]; ok {
		return false
	}
	fe.vals[k] = &cacheSlot{val: v}
	fc.n++
	return true
}
