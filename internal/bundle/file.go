package bundle

import (
	"fmt"
	"os"
	"path/filepath"
)

// WriteFile encodes the bundle and writes it atomically: the bytes land in
// a temporary file in the destination directory which is then renamed over
// path. A concurrent reader — a daemon booting from path — therefore only
// ever observes a complete artifact, never a torn prefix.
func (b *Bundle) WriteFile(path string) error {
	data, err := b.Encode()
	if err != nil {
		return err
	}
	dir := filepath.Dir(path)
	tmp, err := os.CreateTemp(dir, ".bundle-*")
	if err != nil {
		return fmt.Errorf("bundle: write %s: %w", path, err)
	}
	tmpName := tmp.Name()
	if _, err := tmp.Write(data); err != nil {
		tmp.Close()
		os.Remove(tmpName)
		return fmt.Errorf("bundle: write %s: %w", path, err)
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmpName)
		return fmt.Errorf("bundle: write %s: %w", path, err)
	}
	if err := os.Rename(tmpName, path); err != nil {
		os.Remove(tmpName)
		return fmt.Errorf("bundle: write %s: %w", path, err)
	}
	return nil
}

// ReadFile reads and decodes the bundle at path.
func ReadFile(path string) (*Bundle, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("bundle: read %s: %w", path, err)
	}
	b, err := Decode(data)
	if err != nil {
		return nil, fmt.Errorf("bundle: read %s: %w", path, err)
	}
	return b, nil
}
