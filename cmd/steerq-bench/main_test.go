package main

import (
	"strings"
	"testing"
)

func TestCheckExp(t *testing.T) {
	runs := []string{
		"table1", "table2", "table3", "table4", "table5",
		"fig1", "fig2", "fig3", "fig4", "fig5", "fig6", "fig7", "fig8",
		"ablations", "extensions",
	}
	if got := len(plan(nil, nil)); got != len(runs) {
		t.Fatalf("plan has %d runs, want %d", got, len(runs))
	}
	for _, ok := range [][]string{{"all"}, runs, {"table1", "fig8"}, {"ablations", "all"}} {
		if err := checkExp(ok); err != nil {
			t.Errorf("checkExp(%q) = %v, want nil", ok, err)
		}
	}
	for _, bad := range [][]string{{"tabel1"}, {"table1", "fig9"}, {""}, {"Table1"}} {
		err := checkExp(bad)
		if err == nil {
			t.Errorf("checkExp(%q) accepted a bad name", bad)
			continue
		}
		for _, name := range append([]string{"all"}, runs...) {
			if !strings.Contains(err.Error(), name) {
				t.Errorf("checkExp(%q) error does not list %q: %v", bad, name, err)
			}
		}
	}
}
