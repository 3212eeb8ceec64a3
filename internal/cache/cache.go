// Package cache is the content-addressed result store behind the
// experiment Runner's WithCache: a filesystem directory keyed by
// canonical Spec hash, holding one file per completed grid cell (series ×
// point). The layout gives the Runner per-point granularity — a killed
// sweep persists exactly its whole completed points, and a restart
// simulates only the missing ones — and the content addressing makes a
// repeated run of the same semantic Spec a pure read.
//
// The store knows nothing about Specs or Results: keys are opaque
// lowercase-hex content hashes, cells are (series, point) coordinates,
// and values are byte blobs (in practice one ResultPoint JSON each).
// Writes are atomic (temp file + rename in the same directory), so a
// reader never observes a torn cell and concurrent writers of the same
// cell settle on one complete value.
//
// Layout:
//
//	<dir>/<key>/spec.json        optional metadata (the canonical spec)
//	<dir>/<key>/s00003-p00007    cell series 3, point 7
package cache

import (
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strconv"
)

// Cell addresses one grid cell of a cached run: the series index and the
// point index within that series, both in the owning spec's expansion
// order.
type Cell struct {
	Series int
	Point  int
}

// name renders the cell's filename. Fixed-width decimal keeps directory
// listings (and therefore Cells) in deterministic series-major order and
// supports grids up to 100k series × 100k points.
func (c Cell) name() string {
	return fmt.Sprintf("s%05d-p%05d", c.Series, c.Point)
}

// parseCellName inverts Cell.name.
func parseCellName(name string) (Cell, bool) {
	if len(name) != 13 || name[0] != 's' || name[6] != '-' || name[7] != 'p' {
		return Cell{}, false
	}
	series, err1 := strconv.Atoi(name[1:6])
	point, err2 := strconv.Atoi(name[8:13])
	if err1 != nil || err2 != nil {
		return Cell{}, false
	}
	c := Cell{Series: series, Point: point}
	if c.name() != name {
		return Cell{}, false
	}
	return c, true
}

// specFile is the per-key metadata filename (see Store.PutSpec).
const specFile = "spec.json"

// Store is a content-addressed cell store rooted at one directory. The
// zero value is unusable; construct with Open. A Store is safe for
// concurrent use by multiple goroutines and processes.
type Store struct {
	dir string
}

// Open returns a Store rooted at dir, creating the directory if needed.
func Open(dir string) (*Store, error) {
	if dir == "" {
		return nil, fmt.Errorf("cache: empty directory")
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("cache: %w", err)
	}
	return &Store{dir: dir}, nil
}

// Dir returns the store's root directory.
func (s *Store) Dir() string { return s.dir }

// checkKey rejects keys that are not plain lowercase-hex content hashes,
// closing the door on path traversal through a crafted key.
func checkKey(key string) error {
	if len(key) < 8 {
		return fmt.Errorf("cache: key %q too short to be a content hash", key)
	}
	for _, r := range key {
		if (r < '0' || r > '9') && (r < 'a' || r > 'f') {
			return fmt.Errorf("cache: key %q is not lowercase hex", key)
		}
	}
	return nil
}

func (s *Store) keyDir(key string) (string, error) {
	if err := checkKey(key); err != nil {
		return "", err
	}
	return filepath.Join(s.dir, key), nil
}

// writeAtomic writes data to path via a temp file in the same directory
// and a rename, so concurrent readers see either nothing or the whole
// value, never a prefix.
func writeAtomic(path string, data []byte) error {
	dir := filepath.Dir(path)
	tmp, err := os.CreateTemp(dir, ".tmp-*")
	if err != nil {
		return err
	}
	name := tmp.Name()
	if _, err := tmp.Write(data); err != nil {
		tmp.Close()
		os.Remove(name)
		return err
	}
	if err := tmp.Close(); err != nil {
		os.Remove(name)
		return err
	}
	if err := os.Chmod(name, 0o644); err != nil {
		os.Remove(name)
		return err
	}
	if err := os.Rename(name, path); err != nil {
		os.Remove(name)
		return err
	}
	return nil
}

// Put stores one cell's value under key, atomically. An existing value
// for the same cell is replaced whole.
func (s *Store) Put(key string, c Cell, data []byte) error {
	dir, err := s.keyDir(key)
	if err != nil {
		return err
	}
	if c.Series < 0 || c.Point < 0 {
		return fmt.Errorf("cache: negative cell %+v", c)
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return fmt.Errorf("cache: %w", err)
	}
	if err := writeAtomic(filepath.Join(dir, c.name()), data); err != nil {
		return fmt.Errorf("cache: put %s/%s: %w", key, c.name(), err)
	}
	return nil
}

// Get loads one cell's value. The second return value reports whether
// the cell is present; absence is not an error.
func (s *Store) Get(key string, c Cell) ([]byte, bool, error) {
	dir, err := s.keyDir(key)
	if err != nil {
		return nil, false, err
	}
	data, err := os.ReadFile(filepath.Join(dir, c.name()))
	if os.IsNotExist(err) {
		return nil, false, nil
	}
	if err != nil {
		return nil, false, fmt.Errorf("cache: get %s/%s: %w", key, c.name(), err)
	}
	return data, true, nil
}

// Cells lists the cells present under key, in series-major order. A key
// with no entries yields an empty slice, not an error.
func (s *Store) Cells(key string) ([]Cell, error) {
	dir, err := s.keyDir(key)
	if err != nil {
		return nil, err
	}
	entries, err := os.ReadDir(dir)
	if os.IsNotExist(err) {
		return nil, nil
	}
	if err != nil {
		return nil, fmt.Errorf("cache: list %s: %w", key, err)
	}
	var cells []Cell
	for _, e := range entries {
		if e.IsDir() {
			continue
		}
		if c, ok := parseCellName(e.Name()); ok {
			cells = append(cells, c)
		}
	}
	sort.Slice(cells, func(i, j int) bool {
		if cells[i].Series != cells[j].Series {
			return cells[i].Series < cells[j].Series
		}
		return cells[i].Point < cells[j].Point
	})
	return cells, nil
}

// PutSpec stores the key's metadata document (conventionally the
// canonical spec that hashes to the key), atomically. It is written for
// human inspection and debugging; nothing reads it back on the hot path.
func (s *Store) PutSpec(key string, data []byte) error {
	dir, err := s.keyDir(key)
	if err != nil {
		return err
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return fmt.Errorf("cache: %w", err)
	}
	if err := writeAtomic(filepath.Join(dir, specFile), data); err != nil {
		return fmt.Errorf("cache: put %s/%s: %w", key, specFile, err)
	}
	return nil
}

// Spec loads the key's metadata document; ok reports presence.
func (s *Store) Spec(key string) ([]byte, bool, error) {
	dir, err := s.keyDir(key)
	if err != nil {
		return nil, false, err
	}
	data, err := os.ReadFile(filepath.Join(dir, specFile))
	if os.IsNotExist(err) {
		return nil, false, nil
	}
	if err != nil {
		return nil, false, fmt.Errorf("cache: %w", err)
	}
	return data, true, nil
}
