package summary

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"os"
	"path/filepath"
	"sort"
)

// DirStore is a persistent content-addressed byte store: keys are derived
// from content hashes (Keyer.SourceKey and the cache's program key), values
// are opaque serialized results. The store may drop entries at any time
// (eviction, corruption); callers must treat every Get miss as "recompute
// and Put again". It keeps one file per entry under dir, named by the
// SHA-256 of the key (keys are already hash-derived, but hashing again keeps
// file names fixed-length and filesystem-safe). Values are written with a
// header echoing the full key, so a Get can detect both corruption and the
// astronomically unlikely filename collision and report a miss instead of
// returning a wrong result; corrupt files are deleted on detection and
// rewritten by the next Put. When the store grows past max entries, the
// oldest files (by modification time) are pruned.
type DirStore struct {
	dir  string
	max  int
	puts int
}

// pruneEvery bounds how often Put rescans the directory for eviction.
const pruneEvery = 64

// NewDirStore opens (creating if needed) a persistent store rooted at dir,
// capped at max entries (max <= 0 means unbounded).
func NewDirStore(dir string, max int) (*DirStore, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("summary: cache dir: %w", err)
	}
	return &DirStore{dir: dir, max: max}, nil
}

func (s *DirStore) path(key string) string {
	sum := sha256.Sum256([]byte(key))
	return filepath.Join(s.dir, hex.EncodeToString(sum[:])+".sce")
}

// Get loads the value stored for key, verifying the embedded key header. A
// missing, corrupt, or mismatched file is a miss (and corrupt files are
// removed so the cache heals itself).
func (s *DirStore) Get(key string) ([]byte, bool) {
	p := s.path(key)
	raw, err := os.ReadFile(p)
	if err != nil {
		return nil, false
	}
	val, ok := decodeEntry(raw, key)
	if !ok {
		os.Remove(p)
		return nil, false
	}
	return val, true
}

// Put stores val under key, writing via a temporary file so a crashed write
// leaves a detectable (and self-healing) partial instead of a plausible one.
func (s *DirStore) Put(key string, val []byte) {
	p := s.path(key)
	tmp := p + ".tmp"
	if err := os.WriteFile(tmp, encodeEntry(key, val), 0o644); err != nil {
		return // a write failure degrades to "no cache", never to an error
	}
	if err := os.Rename(tmp, p); err != nil {
		os.Remove(tmp)
		return
	}
	if s.puts++; s.max > 0 && s.puts%pruneEvery == 0 {
		s.prune()
	}
}

// prune removes the oldest entries past the cap.
func (s *DirStore) prune() {
	names, err := filepath.Glob(filepath.Join(s.dir, "*.sce"))
	if err != nil || len(names) <= s.max {
		return
	}
	type aged struct {
		name string
		mod  int64
	}
	files := make([]aged, 0, len(names))
	for _, n := range names {
		st, err := os.Stat(n)
		if err != nil {
			continue
		}
		files = append(files, aged{n, st.ModTime().UnixNano()})
	}
	sort.Slice(files, func(i, j int) bool { return files[i].mod < files[j].mod })
	for i := 0; i < len(files)-s.max; i++ {
		os.Remove(files[i].name)
	}
}

// entryMagic versions the on-disk entry framing.
const entryMagic = "SCE1"

// encodeEntry frames a value as magic || keyLen || key || val.
func encodeEntry(key string, val []byte) []byte {
	out := make([]byte, 0, len(entryMagic)+2+len(key)+len(val))
	out = append(out, entryMagic...)
	out = append(out, byte(len(key)), byte(len(key)>>8))
	out = append(out, key...)
	return append(out, val...)
}

// decodeEntry unframes raw, verifying the magic and the embedded key.
func decodeEntry(raw []byte, key string) ([]byte, bool) {
	hdr := len(entryMagic) + 2
	if len(raw) < hdr || string(raw[:len(entryMagic)]) != entryMagic {
		return nil, false
	}
	klen := int(raw[len(entryMagic)]) | int(raw[len(entryMagic)+1])<<8
	if len(raw) < hdr+klen || string(raw[hdr:hdr+klen]) != key {
		return nil, false
	}
	return raw[hdr+klen:], true
}
