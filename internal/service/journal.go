package service

import (
	"bufio"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"sort"
	"time"

	"zenspec/internal/harness"
)

// The journal is a write-ahead log of job state transitions, one
// length-framed, checksummed JSON record per transition:
//
//	"ZSJ1" | payload length (uint32 LE) | CRC-32/IEEE of payload | payload
//
// Records are fsynced as they are appended, so a record either made it to
// disk whole or is a detectably broken tail. The log is segmented: appends go
// to the newest wal-NNNNNN.seg file, a segment exceeding the size limit is
// sealed and a fresh one started, and a compaction (triggered by segment
// count, and by the clean-shutdown checkpoint) writes the live state's
// snapshot into a new segment and deletes the older ones — so the WAL on disk
// stays bounded by the snapshot size plus a few segments, however long the
// daemon lives. Opening the journal replays every intact record across all
// segments in order and truncates the newest segment at its first broken
// record — a crash mid-append loses at most the record being written, never
// the records before it. Because apply is idempotent, a crash between a
// compaction snapshot and the deletion of the segments it summarizes replays
// both without harm.
//
// A single exclusive flock on wal.lock guards the directory: two live
// daemons can never interleave appends, while the lock dies with a kill -9'd
// process so a crashed daemon never wedges its successor.
//
// Older state directories are refused with ErrJournalVersion, never misread:
// one holding the pre-segmentation single-file journal.wal, or a segment
// holding a pre-/v1 record (a submit listing whole-experiment "shards", a
// shard_done carrying a bare "report"). The refusal comes before any tail is
// healed or segment created, so the directory is left as it was found.

// Record types. A submit record carries the full spec plus the resolved
// shard list (so replay does not depend on the live registry); shard records
// carry the completed PartialReport fragment or the terminal error; job
// records mark the derived terminal state (redundant with the shard records,
// kept for journal legibility — apply tolerates their absence and their
// duplication alike); an archive record retires a terminal job from the
// table, so the next compaction drops it from disk.
const (
	recSubmit      = "submit"
	recShardDone   = "shard_done"
	recShardFailed = "shard_failed"
	recJobDone     = "job_done"
	recJobFailed   = "job_failed"
	recJobArchive  = "job_archive"
)

type record struct {
	Type string   `json:"type"`
	Job  string   `json:"job,omitempty"`
	Spec *JobSpec `json:"spec,omitempty"`
	// Trace is the submit record's observability correlation ID: minted by
	// the daemon at submission and journaled with the job, so a resumed job
	// keeps its trace identity across restarts. A job submitted with
	// observability disabled has none.
	Trace string `json:"trace,omitempty"`
	// Defs is the submit record's shard list.
	Defs  []ShardRef `json:"defs,omitempty"`
	Shard string     `json:"shard,omitempty"`
	// Partial is a shard-done record's fragment.
	Partial *harness.PartialReport `json:"partial,omitempty"`
	Error   string                 `json:"error,omitempty"`
	// Shards and Report are the pre-/v1 submit and shard_done payloads. They
	// are decoded only so that a journal holding them is refused: skipping
	// them would replay a submit as a job with no shards, done and empty.
	Shards json.RawMessage `json:"shards,omitempty"`
	Report json.RawMessage `json:"report,omitempty"`
}

var journalMagic = [4]byte{'Z', 'S', 'J', '1'}

// maxRecordSize bounds one record's payload; a longer length field can only
// come from corruption.
const maxRecordSize = 256 << 20

// defaultSegmentBytes is the segment size limit when the config leaves it 0.
const defaultSegmentBytes = 4 << 20

// compactSegments is the segment count that triggers a compaction: the WAL
// never holds more than this many segments for long.
const compactSegments = 4

const (
	lockName = "wal.lock"
	// oldName is the pre-segmentation single-file journal.
	oldName = "journal.wal"
)

func segName(seq int) string { return fmt.Sprintf("wal-%06d.seg", seq) }

// journal is the open segmented WAL handle, positioned for appending to the
// newest segment.
type journal struct {
	dir    string
	lock   *os.File
	f      *os.File // active (newest) segment
	seq    int      // active segment's sequence number
	size   int64    // active segment's intact size
	limit  int64    // segment size limit; exceeded appends seal the segment
	sealed []int    // sequence numbers of the sealed (read-only) segments

	// Observability hooks, set by the daemon after openJournal and invoked
	// under the daemon's lock (every append happens there). All are optional.
	onAppend     func(rec *record, dur time.Duration) // after a durable append; dur covers write+fsync
	onRotate     func(seq int)                        // after a segment seal
	onCheckpoint func(recs int, dur time.Duration)    // after a successful compaction
}

// openJournal locks dir, replays every intact record across all segments in
// order (healing a corrupt tail of the newest segment by truncation), and
// returns the handle positioned for appends. A directory in an older journal
// format is refused with ErrJournalVersion before anything in it changes.
func openJournal(dir string, limit int64) (*journal, []record, error) {
	if limit <= 0 {
		limit = defaultSegmentBytes
	}
	lock, err := os.OpenFile(filepath.Join(dir, lockName), os.O_CREATE|os.O_RDWR, 0o644)
	if err != nil {
		return nil, nil, fmt.Errorf("service: open journal lock: %w", err)
	}
	if err := lockFile(lock); err != nil {
		lock.Close()
		return nil, nil, fmt.Errorf("service: %w", err)
	}
	fail := func(err error) (*journal, []record, error) {
		lock.Close()
		return nil, nil, err
	}
	if _, err := os.Stat(filepath.Join(dir, oldName)); err == nil {
		return fail(fmt.Errorf("%w: %s is the pre-segmentation layout", ErrJournalVersion, filepath.Join(dir, oldName)))
	}
	seqs, err := listSegments(dir)
	if err != nil {
		return fail(fmt.Errorf("service: list journal segments: %w", err))
	}
	if len(seqs) == 0 {
		seqs = []int{1}
		f, err := os.OpenFile(filepath.Join(dir, segName(1)), os.O_CREATE|os.O_RDWR, 0o644)
		if err != nil {
			return fail(fmt.Errorf("service: create journal segment: %w", err))
		}
		f.Close()
	}
	var recs []record
	j := &journal{dir: dir, lock: lock, limit: limit}
	for i, seq := range seqs {
		f, err := os.OpenFile(filepath.Join(dir, segName(seq)), os.O_RDWR, 0o644)
		if err != nil {
			return fail(fmt.Errorf("service: open journal segment: %w", err))
		}
		segRecs, good, err := scanRecords(f)
		if err != nil {
			f.Close()
			return fail(fmt.Errorf("service: scan journal segment %d: %w", seq, err))
		}
		for _, rec := range segRecs {
			if rec.Shards != nil || rec.Report != nil {
				f.Close()
				return fail(fmt.Errorf("%w: %s holds a pre-/v1 %s record", ErrJournalVersion, f.Name(), rec.Type))
			}
		}
		recs = append(recs, segRecs...)
		if i < len(seqs)-1 {
			// A sealed segment with a damaged tail loses its trailing records;
			// replay continues with the later segments (and the compaction
			// snapshot they open with, when one exists) — apply heals forward.
			f.Close()
			j.sealed = append(j.sealed, seq)
			continue
		}
		// The newest segment is the append target: heal its tail in place.
		if fi, err := f.Stat(); err == nil && fi.Size() > good {
			if err := f.Truncate(good); err != nil {
				f.Close()
				return fail(fmt.Errorf("service: heal journal tail: %w", err))
			}
		}
		if _, err := f.Seek(good, io.SeekStart); err != nil {
			f.Close()
			return fail(fmt.Errorf("service: seek journal: %w", err))
		}
		j.f, j.seq, j.size = f, seq, good
	}
	return j, recs, nil
}

// listSegments returns the existing segment sequence numbers in ascending
// order.
func listSegments(dir string) ([]int, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var seqs []int
	for _, e := range entries {
		var seq int
		if n, err := fmt.Sscanf(e.Name(), "wal-%06d.seg", &seq); n == 1 && err == nil {
			seqs = append(seqs, seq)
		}
	}
	sort.Ints(seqs)
	return seqs, nil
}

// segments returns how many segment files the journal currently spans — the
// daemon's compaction trigger.
func (j *journal) segments() int { return len(j.sealed) + 1 }

// scanRecords reads records from the start of f, returning the intact prefix
// and the offset where it ends. Framing or checksum damage stops the scan
// without error — the caller truncates there (or, for sealed segments,
// simply moves on). Only real I/O errors are returned.
func scanRecords(f *os.File) ([]record, int64, error) {
	fi, err := f.Stat()
	if err != nil {
		return nil, 0, err
	}
	if _, err := f.Seek(0, io.SeekStart); err != nil {
		return nil, 0, err
	}
	br := bufio.NewReader(f)
	var recs []record
	var off int64
	for {
		var hdr [12]byte
		if _, err := io.ReadFull(br, hdr[:]); err != nil {
			if err == io.EOF || err == io.ErrUnexpectedEOF {
				return recs, off, nil // clean end, or a torn header
			}
			return nil, 0, err
		}
		if [4]byte(hdr[:4]) != journalMagic {
			return recs, off, nil
		}
		n := binary.LittleEndian.Uint32(hdr[4:8])
		sum := binary.LittleEndian.Uint32(hdr[8:12])
		// A length past the end of the file is a torn tail (or a corrupt
		// length field): reject it before allocating the payload buffer.
		if n > maxRecordSize || int64(n) > fi.Size()-off-int64(len(hdr)) {
			return recs, off, nil
		}
		payload := make([]byte, n)
		if _, err := io.ReadFull(br, payload); err != nil {
			if err == io.EOF || err == io.ErrUnexpectedEOF {
				return recs, off, nil // torn payload
			}
			return nil, 0, err
		}
		if crc32.ChecksumIEEE(payload) != sum {
			return recs, off, nil
		}
		var rec record
		if err := json.Unmarshal(payload, &rec); err != nil {
			return recs, off, nil
		}
		recs = append(recs, rec)
		off += int64(len(hdr)) + int64(n)
	}
}

func frame(rec record) ([]byte, error) {
	payload, err := json.Marshal(rec)
	if err != nil {
		return nil, err
	}
	buf := make([]byte, 12+len(payload))
	copy(buf, journalMagic[:])
	binary.LittleEndian.PutUint32(buf[4:8], uint32(len(payload)))
	binary.LittleEndian.PutUint32(buf[8:12], crc32.ChecksumIEEE(payload))
	copy(buf[12:], payload)
	return buf, nil
}

// rotate seals the active segment and starts the next one.
func (j *journal) rotate() error {
	next, err := os.OpenFile(filepath.Join(j.dir, segName(j.seq+1)), os.O_CREATE|os.O_RDWR|os.O_TRUNC, 0o644)
	if err != nil {
		return fmt.Errorf("service: rotate journal segment: %w", err)
	}
	j.f.Close()
	j.sealed = append(j.sealed, j.seq)
	j.f, j.seq, j.size = next, j.seq+1, 0
	if j.onRotate != nil {
		j.onRotate(j.seq)
	}
	return nil
}

// append writes one record and fsyncs: when append returns nil the
// transition is durable. An append that would push the active segment past
// the size limit seals it and starts a new segment first.
func (j *journal) append(rec record) error {
	buf, err := frame(rec)
	if err != nil {
		return fmt.Errorf("service: journal record: %w", err)
	}
	if j.size > 0 && j.size+int64(len(buf)) > j.limit {
		if err := j.rotate(); err != nil {
			return err
		}
	}
	start := time.Now()
	if _, err := j.f.Write(buf); err != nil {
		return fmt.Errorf("service: journal append: %w", err)
	}
	if err := j.f.Sync(); err != nil {
		return fmt.Errorf("service: journal sync: %w", err)
	}
	j.size += int64(len(buf))
	if j.onAppend != nil {
		j.onAppend(&rec, time.Since(start))
	}
	return nil
}

// checkpoint compacts the WAL to the given records (the live state's
// snapshot): they are written into a fresh segment, fsynced, and only then
// are the older segments deleted. A crash before the deletes replays old
// history followed by the (possibly torn) snapshot — idempotent apply folds
// both to the same state — so the compaction is crash-safe at every step.
// The directory lock is held throughout; it is never dropped mid-swap.
func (j *journal) checkpoint(recs []record) error {
	start := time.Now()
	path := filepath.Join(j.dir, segName(j.seq+1))
	f, err := os.OpenFile(path, os.O_CREATE|os.O_RDWR|os.O_TRUNC, 0o644)
	if err != nil {
		return fmt.Errorf("service: checkpoint: %w", err)
	}
	w := bufio.NewWriter(f)
	var size int64
	for _, rec := range recs {
		buf, err := frame(rec)
		if err == nil {
			var n int
			n, err = w.Write(buf)
			size += int64(n)
		}
		if err != nil {
			f.Close()
			os.Remove(path)
			return fmt.Errorf("service: checkpoint: %w", err)
		}
	}
	if err := w.Flush(); err == nil {
		err = f.Sync()
	} else {
		f.Close()
		os.Remove(path)
		return fmt.Errorf("service: checkpoint: %w", err)
	}
	if err != nil {
		f.Close()
		os.Remove(path)
		return fmt.Errorf("service: checkpoint: %w", err)
	}
	// The snapshot is durable: retire every older segment, the active one
	// included.
	j.f.Close()
	for _, seq := range append(j.sealed, j.seq) {
		os.Remove(filepath.Join(j.dir, segName(seq)))
	}
	j.sealed = nil
	j.f, j.seq, j.size = f, j.seq+1, size
	if j.onCheckpoint != nil {
		j.onCheckpoint(len(recs), time.Since(start))
	}
	return nil
}

// close closes the handles without compacting (the crash-simulation path:
// appended records are already durable). Closing the lock file releases the
// flock.
func (j *journal) close() error {
	err := j.f.Close()
	if lerr := j.lock.Close(); err == nil {
		err = lerr
	}
	return err
}
