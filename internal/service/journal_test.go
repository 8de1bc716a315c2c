package service

import (
	"bytes"
	"context"
	"encoding/binary"
	"encoding/json"
	"errors"
	"hash/crc32"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"testing"
	"time"

	"zenspec/internal/fault"
	"zenspec/internal/harness"
)

func testRecords() []record {
	spec := &JobSpec{Seed: 42, Quick: true}
	rep := &harness.Report{ID: "a", Title: "A", Pass: true, Status: harness.StatusClean}
	return []record{
		{Type: recSubmit, Job: "job-1", Spec: spec, Defs: []ShardRef{{Exp: "a"}, {Exp: "b", Lo: 0, Hi: 4}}},
		{Type: recShardDone, Job: "job-1", Shard: "a", Partial: &harness.PartialReport{Exp: "a", Report: rep}},
		{Type: recShardFailed, Job: "job-1", Shard: "b[0:4]", Error: "boom"},
	}
}

func writeTestJournal(t *testing.T, dir string, recs []record) {
	t.Helper()
	j, got, err := openJournal(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 0 {
		t.Fatalf("fresh journal has %d records", len(got))
	}
	for _, rec := range recs {
		if err := j.append(rec); err != nil {
			t.Fatal(err)
		}
	}
	if err := j.close(); err != nil {
		t.Fatal(err)
	}
}

// segPaths lists the journal's segment files in sequence order.
func segPaths(t *testing.T, dir string) []string {
	t.Helper()
	seqs, err := listSegments(dir)
	if err != nil {
		t.Fatal(err)
	}
	paths := make([]string, len(seqs))
	for i, seq := range seqs {
		paths[i] = filepath.Join(dir, segName(seq))
	}
	return paths
}

func TestJournalRoundTrip(t *testing.T) {
	dir := t.TempDir()
	want := testRecords()
	writeTestJournal(t, dir, want)
	j, got, err := openJournal(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer j.close()
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("replayed records differ:\n%+v\nwant\n%+v", got, want)
	}
}

// TestJournalTruncatedTail: a crash mid-append leaves a torn final record;
// reopening must recover every record before it, heal the segment by
// truncating the tail, and leave the journal appendable.
func TestJournalTruncatedTail(t *testing.T) {
	dir := t.TempDir()
	writeTestJournal(t, dir, testRecords())
	path := segPaths(t, dir)[0]
	fi, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(path, fi.Size()-5); err != nil {
		t.Fatal(err)
	}
	j, got, err := openJournal(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 {
		t.Fatalf("recovered %d records from torn journal, want 2", len(got))
	}
	// The tail was healed: appending works and a clean reopen sees 3 records.
	if err := j.append(record{Type: recJobDone, Job: "job-1"}); err != nil {
		t.Fatal(err)
	}
	j.close()
	j, got, err = openJournal(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer j.close()
	if len(got) != 3 || got[2].Type != recJobDone {
		t.Fatalf("healed journal replayed %d records: %+v", len(got), got)
	}
}

// TestJournalCorruptTail: a bit flip inside the final record's payload fails
// its checksum; the scan must stop there, keeping the intact prefix.
func TestJournalCorruptTail(t *testing.T) {
	dir := t.TempDir()
	writeTestJournal(t, dir, testRecords())
	path := segPaths(t, dir)[0]
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	raw[len(raw)-3] ^= 0xff
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	j, got, err := openJournal(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer j.close()
	if len(got) != 2 {
		t.Fatalf("recovered %d records past a checksum failure, want 2", len(got))
	}
}

// TestJournalGarbageSegment: a segment that is not a journal at all replays
// as empty and self-heals to a clean file.
func TestJournalGarbageSegment(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, segName(1))
	if err := os.WriteFile(path, []byte("not a journal at all"), 0o644); err != nil {
		t.Fatal(err)
	}
	j, got, err := openJournal(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer j.close()
	if len(got) != 0 {
		t.Fatalf("garbage segment replayed %d records", len(got))
	}
	if fi, err := os.Stat(path); err != nil || fi.Size() != 0 {
		t.Fatalf("garbage tail not healed: size %d, err %v", fi.Size(), err)
	}
}

// TestJournalRefusesPreV1: a state directory in an older journal format —
// the single-file journal.wal, or a segment holding a pre-/v1 submit or
// shard_done, sealed or newest — is refused with ErrJournalVersion by
// openJournal and by Open alike, and left exactly as it was: nothing
// renamed, truncated or created beside the lock file.
func TestJournalRefusesPreV1(t *testing.T) {
	submitV0 := record{Type: recSubmit, Job: "job-1", Spec: &JobSpec{Seed: 1}, Shards: json.RawMessage(`["a","b"]`)}
	doneV0 := record{Type: recShardDone, Job: "job-1", Shard: "a", Report: json.RawMessage(`{"id":"a","pass":true}`)}
	frames := func(recs ...record) []byte {
		var out []byte
		for _, rec := range recs {
			buf, err := frame(rec)
			if err != nil {
				t.Fatal(err)
			}
			out = append(out, buf...)
		}
		return out
	}
	v1 := testRecords()
	for _, tc := range []struct {
		name  string
		files map[string][]byte
	}{
		{"journal.wal", map[string][]byte{oldName: frames(v1...)}},
		{"newest segment", map[string][]byte{segName(1): frames(submitV0)}},
		{"sealed segment", map[string][]byte{
			segName(1): frames(v1[0], doneV0),
			segName(2): {},
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			for name, data := range tc.files {
				if err := os.WriteFile(filepath.Join(dir, name), data, 0o644); err != nil {
					t.Fatal(err)
				}
			}
			if j, _, err := openJournal(dir, 0); !errors.Is(err, ErrJournalVersion) {
				if j != nil {
					j.close()
				}
				t.Fatalf("openJournal err = %v, want ErrJournalVersion", err)
			}
			if d, err := Open(Config{Dir: dir, Registry: fakeRegistry("a", "b"), Workers: 0}); !errors.Is(err, ErrJournalVersion) {
				if d != nil {
					d.Kill()
				}
				t.Fatalf("Open err = %v, want ErrJournalVersion", err)
			}
			entries, err := os.ReadDir(dir)
			if err != nil {
				t.Fatal(err)
			}
			for _, e := range entries {
				want, ok := tc.files[e.Name()]
				if !ok {
					if e.Name() != lockName {
						t.Errorf("refused open created %s", e.Name())
					}
					continue
				}
				got, err := os.ReadFile(filepath.Join(dir, e.Name()))
				if err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(got, want) {
					t.Errorf("refused open changed %s: %d bytes, was %d", e.Name(), len(got), len(want))
				}
			}
			if len(entries) != len(tc.files)+1 {
				t.Errorf("directory holds %d entries after refusal, want %d plus the lock", len(entries), len(tc.files))
			}
		})
	}
}

// TestReplayIgnoresRemovedSpecFields: a state directory whose submit record
// carries the spec fields older daemons scheduled by (priority, deadline,
// retries) opens as this journal version, and its job drains to the bytes of
// a direct run. The worker draining it is an older one too: its completion
// bodies still carry "overrun".
func TestReplayIgnoresRemovedSpecFields(t *testing.T) {
	dir := t.TempDir()
	payload := []byte(`{"type":"submit","job":"job-1","trace":"job-1.1",` +
		`"spec":{"seed":7,"priority":5,"deadline":50000000,"retries":2},` +
		`"defs":[{"exp":"a"},{"exp":"b"}]}`)
	seg := append(header(uint32(len(payload)), crc32.ChecksumIEEE(payload)), payload...)
	if err := os.WriteFile(filepath.Join(dir, segName(1)), seg, 0o644); err != nil {
		t.Fatal(err)
	}
	reg := fakeRegistry("a", "b")
	d, err := Open(Config{Dir: dir, Registry: reg, Workers: 0, Lease: time.Second})
	if err != nil {
		t.Fatalf("Open = %v, want the old submit record replayed", err)
	}
	srv := NewServer(d)
	addr, err := srv.Serve("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Shutdown(context.Background())
	c := &Client{Base: "http://" + addr.String()}
	for {
		l, err := c.Lease("old-worker", 0)
		if err != nil {
			t.Fatal(err)
		}
		if l == nil {
			break
		}
		p, err := reg.RunTrialRange(shardRunCtx(l.Spec, fault.Plan{}, 1), l.Shard.Exp, l.Shard.Lo, l.Shard.Hi)
		if err != nil {
			t.Fatal(err)
		}
		body := map[string]any{"partial": p, "overrun": false}
		if _, err := c.request("POST", "/v1/leases/"+l.Token+"/complete", body); err != nil {
			t.Fatalf("complete with an overrun field: %v", err)
		}
	}
	st, err := d.Status("job-1")
	if err != nil || st.State != JobDone {
		t.Fatalf("replayed job = %+v, %v", st, err)
	}
	rep, err := d.Report("job-1")
	if err != nil {
		t.Fatal(err)
	}
	got, err := rep.StableJSON()
	if err != nil {
		t.Fatal(err)
	}
	direct, err := reg.Run(shardRunCtx(JobSpec{Seed: 7}, fault.Plan{}, 1), nil)
	if err != nil {
		t.Fatal(err)
	}
	want, err := direct.StableJSON()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("replayed job's report differs from a direct run:\n%s\nvs\n%s", got, want)
	}
}

// TestJournalHugeLengthTail: a header whose length field claims far more
// bytes than the segment holds is a torn tail, healed without allocating the
// claimed size.
func TestJournalHugeLengthTail(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, segName(1))
	if err := os.WriteFile(path, header(maxRecordSize, 0), 0o644); err != nil {
		t.Fatal(err)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	j, got, err := openJournal(dir, 0)
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	defer j.close()
	if len(got) != 0 {
		t.Fatalf("replayed %d records from a lone header", len(got))
	}
	if delta := after.TotalAlloc - before.TotalAlloc; delta >= 1<<20 {
		t.Fatalf("openJournal allocated %d bytes for a 12-byte segment", delta)
	}
	if fi, err := os.Stat(path); err != nil || fi.Size() != 0 {
		t.Fatalf("huge-length tail not healed: %v, %v", fi, err)
	}
}

// header frames an n-byte payload whose CRC-32 is sum.
func header(n, sum uint32) []byte {
	hdr := make([]byte, 12)
	copy(hdr, journalMagic[:])
	binary.LittleEndian.PutUint32(hdr[4:8], n)
	binary.LittleEndian.PutUint32(hdr[8:12], sum)
	return hdr
}

// FuzzJournalOpen: a segment of CRC-valid frames around arbitrary payloads
// (one per line of the first input; a fuzzer cannot forge CRC-32s, so raw
// bytes alone would never reach decoding), followed by an arbitrary raw
// tail. Opening it never panics and either refuses an older format or
// replays records that fold into the job table and reopen unchanged.
func FuzzJournalOpen(f *testing.F) {
	var lines [][]byte
	for _, rec := range testRecords() {
		b, err := json.Marshal(rec)
		if err != nil {
			f.Fatal(err)
		}
		lines = append(lines, b)
	}
	v1 := bytes.Join(lines, []byte{'\n'})
	f.Add(v1, []byte(nil))
	f.Add([]byte(`{"type":"submit","job":"job-1","spec":{"seed":1},"shards":["a","b"]}`), []byte(nil))
	f.Add([]byte(`{"type":"shard_done","job":"job-1","shard":"a","report":{"id":"a","pass":true}}`), []byte(nil))
	f.Add(v1, []byte("ZSJ1\x05"))
	f.Add([]byte(nil), header(maxRecordSize, 0))
	f.Fuzz(func(t *testing.T, payloads, tail []byte) {
		var seg []byte
		for _, p := range bytes.Split(payloads, []byte{'\n'}) {
			if len(p) == 0 {
				continue
			}
			seg = append(append(seg, header(uint32(len(p)), crc32.ChecksumIEEE(p))...), p...)
		}
		seg = append(seg, tail...)
		dir := t.TempDir()
		path := filepath.Join(dir, segName(1))
		if err := os.WriteFile(path, seg, 0o644); err != nil {
			t.Fatal(err)
		}
		j, recs, err := openJournal(dir, 0)
		if err != nil {
			if !errors.Is(err, ErrJournalVersion) {
				t.Fatalf("openJournal err = %v, want nil or ErrJournalVersion", err)
			}
			return
		}
		if err := j.close(); err != nil {
			t.Fatal(err)
		}
		tab := newJobTable()
		for _, rec := range recs {
			tab.apply(rec)
		}
		fi, err := os.Stat(path)
		if err != nil {
			t.Fatal(err)
		}
		j, again, err := openJournal(dir, 0)
		if err != nil {
			t.Fatalf("second open: %v", err)
		}
		defer j.close()
		if !reflect.DeepEqual(again, recs) {
			t.Fatalf("second open replayed\n%+v\nfirst\n%+v", again, recs)
		}
		if fi2, err := os.Stat(path); err != nil || fi2.Size() != fi.Size() {
			t.Fatalf("second open changed the segment size from %d: %v, %v", fi.Size(), fi2, err)
		}
	})
}

// TestJournalSegmentRotation: sustained appends past the size limit seal
// segments and start new ones; a reopen replays every record across the
// boundary in order.
func TestJournalSegmentRotation(t *testing.T) {
	dir := t.TempDir()
	j, _, err := openJournal(dir, 256)
	if err != nil {
		t.Fatal(err)
	}
	var want []record
	for i := 0; i < 40; i++ {
		rec := record{Type: recShardDone, Job: "job-1", Shard: segName(i)}
		want = append(want, rec)
		if err := j.append(rec); err != nil {
			t.Fatal(err)
		}
	}
	if j.segments() < 3 {
		t.Fatalf("journal spans %d segments after 40 appends at a 256-byte limit", j.segments())
	}
	j.close()
	if paths := segPaths(t, dir); len(paths) < 3 {
		t.Fatalf("only %d segment files on disk", len(paths))
	}
	j, got, err := openJournal(dir, 256)
	if err != nil {
		t.Fatal(err)
	}
	defer j.close()
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("rotation lost records: replayed %d, want %d", len(got), len(want))
	}
}

// TestJournalCorruptSealedTail: damage to a sealed (rotated) segment's tail
// loses only its trailing records — every record of the later segments still
// replays, and the journal stays appendable.
func TestJournalCorruptSealedTail(t *testing.T) {
	dir := t.TempDir()
	j, _, err := openJournal(dir, 256)
	if err != nil {
		t.Fatal(err)
	}
	var want []record
	for i := 0; i < 40; i++ {
		rec := record{Type: recShardDone, Job: "job-1", Shard: segName(i)}
		want = append(want, rec)
		if err := j.append(rec); err != nil {
			t.Fatal(err)
		}
	}
	j.close()
	paths := segPaths(t, dir)
	if len(paths) < 3 {
		t.Fatalf("need >=3 segments, have %d", len(paths))
	}
	raw, err := os.ReadFile(paths[0])
	if err != nil {
		t.Fatal(err)
	}
	raw[len(raw)-3] ^= 0xff
	if err := os.WriteFile(paths[0], raw, 0o644); err != nil {
		t.Fatal(err)
	}
	j, got, err := openJournal(dir, 256)
	if err != nil {
		t.Fatal(err)
	}
	// Exactly one record (the corrupted segment's last) is lost; later
	// segments contribute everything, in order.
	if len(got) >= len(want) || len(got) < len(want)-3 {
		t.Fatalf("replayed %d records, want a bit under %d", len(got), len(want))
	}
	tail := want[len(want)-1]
	if got[len(got)-1].Shard != tail.Shard {
		t.Fatalf("later segments' records lost: last replayed %q, want %q", got[len(got)-1].Shard, tail.Shard)
	}
	if err := j.append(record{Type: recJobDone, Job: "job-1"}); err != nil {
		t.Fatal(err)
	}
	j.close()
}

func TestJournalCheckpointCompacts(t *testing.T) {
	dir := t.TempDir()
	j, _, err := openJournal(dir, 256)
	if err != nil {
		t.Fatal(err)
	}
	recs := testRecords()
	for _, rec := range recs {
		if err := j.append(rec); err != nil {
			t.Fatal(err)
		}
	}
	// Duplicate appends happen in real logs; the checkpoint drops them.
	if err := j.append(recs[1]); err != nil {
		t.Fatal(err)
	}
	if j.segments() < 2 {
		t.Fatalf("appends did not rotate: %d segments", j.segments())
	}
	if err := j.checkpoint(recs); err != nil {
		t.Fatal(err)
	}
	if j.segments() != 1 {
		t.Fatalf("checkpoint left %d segments, want 1", j.segments())
	}
	if paths := segPaths(t, dir); len(paths) != 1 {
		t.Fatalf("checkpoint left %d segment files, want 1", len(paths))
	}
	// checkpoint keeps the directory lock; release it before reopening.
	if err := j.close(); err != nil {
		t.Fatal(err)
	}
	j2, got, err := openJournal(dir, 256)
	if err != nil {
		t.Fatal(err)
	}
	defer j2.close()
	if !reflect.DeepEqual(got, recs) {
		t.Fatalf("checkpointed journal differs:\n%+v\nwant\n%+v", got, recs)
	}
}

// TestApplyDuplicateShardDone: duplicate completion records — possible when
// a crash lands between an append and the next read of state — must apply
// idempotently: the first fragment wins and counts once.
func TestApplyDuplicateShardDone(t *testing.T) {
	tab := newJobTable()
	spec := &JobSpec{Seed: 1}
	tab.apply(record{Type: recSubmit, Job: "job-1", Spec: spec, Defs: []ShardRef{{Exp: "a"}, {Exp: "b"}}})
	first := &harness.PartialReport{Exp: "a", Report: &harness.Report{ID: "a", Detail: "first", Status: harness.StatusClean}}
	second := &harness.PartialReport{Exp: "a", Report: &harness.Report{ID: "a", Detail: "second", Status: harness.StatusClean}}
	tab.apply(record{Type: recShardDone, Job: "job-1", Shard: "a", Partial: first})
	tab.apply(record{Type: recShardDone, Job: "job-1", Shard: "a", Partial: second})
	j := tab.jobs["job-1"]
	done, failed, total := j.counts()
	if done != 1 || failed != 0 || total != 2 {
		t.Fatalf("duplicate shard_done double-counted: done=%d failed=%d total=%d", done, failed, total)
	}
	if j.partials["a"].Report.Detail != "first" {
		t.Fatalf("duplicate shard_done overwrote the first fragment: %q", j.partials["a"].Report.Detail)
	}
	if j.state != JobRunning {
		t.Fatalf("job state %q, want running", j.state)
	}
	// A duplicate failure for an already-done shard is likewise ignored.
	tab.apply(record{Type: recShardFailed, Job: "job-1", Shard: "a", Error: "late"})
	if j.shards["a"].state != ShardDone {
		t.Fatal("late shard_failed overrode a completed shard")
	}
	// Records referencing unknown jobs or shards are skipped, not fatal.
	tab.apply(record{Type: recShardDone, Job: "ghost", Shard: "a", Partial: first})
	tab.apply(record{Type: recShardDone, Job: "job-1", Shard: "ghost", Partial: first})
}

// TestApplyJobArchive: an archive record drops a terminal job from the table
// — and is refused for a live one.
func TestApplyJobArchive(t *testing.T) {
	tab := newJobTable()
	tab.apply(record{Type: recSubmit, Job: "job-1", Spec: &JobSpec{Seed: 1}, Defs: []ShardRef{{Exp: "a"}}})
	// Archiving a live job is a no-op.
	tab.apply(record{Type: recJobArchive, Job: "job-1"})
	if tab.jobs["job-1"] == nil {
		t.Fatal("live job was archived")
	}
	tab.apply(record{Type: recShardDone, Job: "job-1", Shard: "a",
		Partial: &harness.PartialReport{Exp: "a", Report: &harness.Report{ID: "a"}}})
	tab.apply(record{Type: recJobArchive, Job: "job-1"})
	if tab.jobs["job-1"] != nil || len(tab.order) != 0 {
		t.Fatalf("terminal job not archived: %+v order %v", tab.jobs["job-1"], tab.order)
	}
	// The archive survives a snapshot round trip: records() omits the job.
	if recs := tab.records(); len(recs) != 0 {
		t.Fatalf("archived job still in snapshot: %+v", recs)
	}
}
