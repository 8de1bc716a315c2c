package summary_test

import (
	"os"
	"path/filepath"
	"strconv"
	"testing"

	"zenspec/internal/speccheck/summary"
)

// entries counts the entry files a DirStore keeps under dir.
func entries(dir string) int {
	names, _ := filepath.Glob(filepath.Join(dir, "*.sce"))
	return len(names)
}

func TestDirStoreRoundTrip(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "d")
	s, err := summary.NewDirStore(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := s.Get("absent"); ok {
		t.Error("Get on empty store hit")
	}
	s.Put("alpha", []byte("one"))
	s.Put("beta", []byte{})
	if v, ok := s.Get("alpha"); !ok || string(v) != "one" {
		t.Errorf("alpha = %q, %v", v, ok)
	}
	if v, ok := s.Get("beta"); !ok || len(v) != 0 {
		t.Errorf("beta = %q, %v", v, ok)
	}
	if n := entries(dir); n != 2 {
		t.Errorf("%d entries, want 2", n)
	}
}

// TestDirStoreCorruptEntryHeals: corrupt files read as misses and are removed
// so the next Put rewrites them.
func TestDirStoreCorruptEntryHeals(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "d")
	s, err := summary.NewDirStore(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	s.Put("key", []byte("value"))
	files, _ := filepath.Glob(filepath.Join(dir, "*.sce"))
	if len(files) != 1 {
		t.Fatalf("files = %v", files)
	}
	if err := os.WriteFile(files[0], []byte("XXmangled"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, ok := s.Get("key"); ok {
		t.Fatal("corrupt entry served as a hit")
	}
	if _, err := os.Stat(files[0]); !os.IsNotExist(err) {
		t.Error("corrupt entry not removed")
	}
	s.Put("key", []byte("value"))
	if v, ok := s.Get("key"); !ok || string(v) != "value" {
		t.Errorf("healed entry = %q, %v", v, ok)
	}
}

// TestDirStoreKeyEchoDetectsMismatch: a well-formed entry stored under the
// wrong filename (filename collision, renamed file) must not be served.
func TestDirStoreKeyEchoDetectsMismatch(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "d")
	s, err := summary.NewDirStore(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	s.Put("original", []byte("payload"))
	files, _ := filepath.Glob(filepath.Join(dir, "*.sce"))
	raw, err := os.ReadFile(files[0])
	if err != nil {
		t.Fatal(err)
	}
	// Simulate a swapped file: the bytes are a valid entry for "original"
	// but land at "other"'s path.
	s.Put("other", []byte("other-payload"))
	files2, _ := filepath.Glob(filepath.Join(dir, "*.sce"))
	for _, f := range files2 {
		if f != files[0] {
			if err := os.WriteFile(f, raw, 0o644); err != nil {
				t.Fatal(err)
			}
		}
	}
	if _, ok := s.Get("other"); ok {
		t.Error("entry with mismatched key echo served as a hit")
	}
}

func TestDirStorePrunesPastCap(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "d")
	s, err := summary.NewDirStore(dir, 4)
	if err != nil {
		t.Fatal(err)
	}
	// pruneEvery is 64: exactly 64 puts guarantees one prune pass ran.
	for i := 0; i < 64; i++ {
		s.Put("k"+strconv.Itoa(i), []byte{byte(i)})
	}
	if n := entries(dir); n != 4 {
		t.Errorf("%d entries after prune, want 4", n)
	}
}
