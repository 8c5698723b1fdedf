package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestMissingBundleIsFatal pins the boot contract: a -bundle that cannot be
// loaded stops the daemon before it binds, so no address file ever tells a
// caller it is serving.
func TestMissingBundleIsFatal(t *testing.T) {
	dir := t.TempDir()
	addrFile := filepath.Join(dir, "addr.txt")
	err := run([]string{
		"-addr", "127.0.0.1:0",
		"-bundle", filepath.Join(dir, "missing.stqb"),
		"-addr-file", addrFile,
	})
	if err == nil {
		t.Fatal("run with a missing -bundle returned nil")
	}
	if !strings.Contains(err.Error(), "missing.stqb") {
		t.Fatalf("error does not name the bundle: %v", err)
	}
	if _, statErr := os.Stat(addrFile); !os.IsNotExist(statErr) {
		t.Fatalf("-addr-file written despite the failed load (stat: %v)", statErr)
	}
}
