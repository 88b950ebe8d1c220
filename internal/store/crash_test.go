package store

import (
	"bytes"
	"maps"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// crashStore is the surface the crash suite drives on every store kind.
type crashStore interface {
	Store[payload]
	Compact() (CompactStats, error)
	Dropped() int
	Close() error
}

// crashState is a store directory as a crash could leave it: every file's
// bytes, the segment the crash tore, the cut range swept over it
// (inclusive; -1 means the file was never created), the records
// acknowledged before the crash, and the record whose append the cut
// interrupts, if any.
type crashState struct {
	files    map[string][]byte
	seg      string
	from, to int64
	acked    map[string]payload
	cutKey   string
	cutVal   payload
}

type crashOpen func(dir string, segBytes int64) (crashStore, error)

func openDiskCrash(dir string, segBytes int64) (crashStore, error) {
	d, err := OpenDisk[payload](dir)
	if err != nil {
		return nil, err
	}
	d.SegmentBytes = segBytes
	return d, nil
}

func openSharedCrash(owner string) crashOpen {
	return func(dir string, segBytes int64) (crashStore, error) {
		s, err := OpenShared[payload](dir, owner)
		if err != nil {
			return nil, err
		}
		s.SegmentBytes = segBytes
		return s, nil
	}
}

// TestCrashConsistency is the crash suite for the one segment writer, run
// against both store kinds (and, for Shared, a second owner that tails the
// torn segment as foreign). Each case writes through the public API, then
// cuts the torn segment at every byte boundary, reopens, and checks that
// every acknowledged record is served exactly, the record at the cut is
// whole or absent, at most the one torn line is dropped, and no key ever
// serves another key's value.
func TestCrashConsistency(t *testing.T) {
	kinds := []struct {
		name          string
		write, reopen crashOpen
	}{
		{"disk", openDiskCrash, openDiskCrash},
		{"shared", openSharedCrash("w0"), openSharedCrash("w0")},
		{"shared-tail", openSharedCrash("w0"), openSharedCrash("r")},
	}
	cases := []struct {
		name  string
		build func(t *testing.T, dir string, open crashOpen) crashState
	}{
		{"append/sidecar", func(t *testing.T, dir string, open crashOpen) crashState {
			return crashAppend(t, dir, open, true)
		}},
		{"append/no-sidecar", func(t *testing.T, dir string, open crashOpen) crashState {
			return crashAppend(t, dir, open, false)
		}},
		{"rotation", crashRotation},
		{"compaction", crashCompaction},
	}
	for _, k := range kinds {
		for _, c := range cases {
			t.Run(k.name+"/"+c.name, func(t *testing.T) {
				cs := c.build(t, t.TempDir(), k.write)
				dir := t.TempDir()
				for cut := cs.from; cut <= cs.to; cut++ {
					checkCrashCut(t, dir, cs, cut, k.reopen)
					if t.Failed() {
						t.Fatalf("first failure at cut %d of [%d, %d]", cut, cs.from, cs.to)
					}
				}
			})
		}
	}
}

// crashAppend crashes during the last append to the active segment: an
// overwrite of a key whose earlier value is acknowledged. With sidecar, the
// segment's seal-time sidecar survives the crash (it is fsynced; the
// segment tail need not be) and claims more bytes than the cut leaves.
func crashAppend(t *testing.T, dir string, open crashOpen, sidecar bool) crashState {
	s := mustOpen(t, dir, open, DefaultSegmentBytes)
	cs := crashState{acked: map[string]payload{}}
	for i := 0; i < 4; i++ {
		mustPut(t, s, fpKey(i), payload{Ranks: i}, cs.acked)
	}
	cs.seg = newestSegment(t, dir)
	cs.from = fileSize(t, cs.seg)
	cs.cutKey, cs.cutVal = fpKey(0), payload{Ranks: 100}
	mustPut(t, s, cs.cutKey, cs.cutVal, nil)
	cs.to = fileSize(t, cs.seg)
	mustClose(t, s)
	cs.files = snapshotDir(t, dir)
	if !sidecar {
		delete(cs.files, filepath.Base(sidecarPath(cs.seg)))
	}
	cs.seg = filepath.Base(cs.seg)
	return cs
}

// crashRotation crashes in the rotation that starts the last append's
// segment: before the new file exists, or with it cut anywhere in its first
// line. The sealed predecessors keep their sidecars.
func crashRotation(t *testing.T, dir string, open crashOpen) crashState {
	s := mustOpen(t, dir, open, 1) // every append rotates
	cs := crashState{acked: map[string]payload{}}
	for i := 0; i < 2; i++ {
		mustPut(t, s, fpKey(i), payload{Ranks: i}, cs.acked)
	}
	cs.cutKey, cs.cutVal = fpKey(2), payload{Ranks: 2}
	mustPut(t, s, cs.cutKey, cs.cutVal, nil)
	seg := newestSegment(t, dir)
	cs.from, cs.to = -1, fileSize(t, seg)
	mustClose(t, s)
	cs.files = snapshotDir(t, dir)
	delete(cs.files, filepath.Base(sidecarPath(seg))) // never sealed
	cs.seg = filepath.Base(seg)
	return cs
}

// crashCompaction crashes while a compaction writes its replacement
// segment: every old segment still exists and the replacement, whose
// sidecar is written only after its fsync, is cut anywhere.
func crashCompaction(t *testing.T, dir string, open crashOpen) crashState {
	s := mustOpen(t, dir, open, 1) // one old segment per record
	cs := crashState{acked: map[string]payload{}}
	for i := 0; i < 3; i++ {
		mustPut(t, s, fpKey(i), payload{Ranks: i}, cs.acked)
	}
	mustPut(t, s, fpKey(0), payload{Mean: 1}, cs.acked) // shed by compaction
	mustClose(t, s)
	s = mustOpen(t, dir, open, DefaultSegmentBytes)
	before := snapshotDir(t, dir)
	st, err := s.Compact()
	if err != nil {
		t.Fatal(err)
	}
	if st.Rewritten != 3 || st.SegmentsAfter != 1 {
		t.Fatalf("compaction stats %+v, want 3 records into 1 segment", st)
	}
	seg := newestSegment(t, dir)
	if _, ok := before[filepath.Base(seg)]; ok {
		t.Fatalf("newest segment %s predates the compaction", seg)
	}
	replacement, err := os.ReadFile(seg)
	if err != nil {
		t.Fatal(err)
	}
	mustClose(t, s)
	cs.files, cs.seg = before, filepath.Base(seg)
	cs.files[cs.seg] = replacement
	cs.from, cs.to = 0, int64(len(replacement))
	return cs
}

// checkCrashCut rewrites dir to hold cs with its segment cut at cut bytes,
// reopens it and checks the crash contract. Files the previous cut left
// unchanged are kept, which keeps the suite fast.
func checkCrashCut(t *testing.T, dir string, cs crashState, cut int64, reopen crashOpen) {
	t.Helper()
	files := maps.Clone(cs.files)
	if cut < 0 {
		delete(files, cs.seg)
	} else {
		files[cs.seg] = files[cs.seg][:cut]
	}
	for name, b := range snapshotDir(t, dir) {
		if want, ok := files[name]; ok && bytes.Equal(want, b) {
			delete(files, name)
		} else if !ok {
			if err := os.Remove(filepath.Join(dir, name)); err != nil {
				t.Fatal(err)
			}
		}
	}
	for name, b := range files {
		if err := os.WriteFile(filepath.Join(dir, name), b, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	s, err := reopen(dir, DefaultSegmentBytes)
	if err != nil {
		t.Fatalf("cut %d: reopen: %v", cut, err)
	}
	defer s.Close()
	want := maps.Clone(cs.acked)
	whole := cut == cs.to
	if cs.cutKey != "" && whole {
		want[cs.cutKey] = cs.cutVal
	}
	for k, v := range want {
		if got, ok := s.Get(k); !ok || got != v {
			t.Errorf("cut %d: Get(%s) = %+v, %v; want %+v", cut, k, got, ok, v)
		}
	}
	if _, acked := cs.acked[cs.cutKey]; cs.cutKey != "" && !whole && !acked {
		if got, ok := s.Get(cs.cutKey); ok {
			t.Errorf("cut %d: torn record %s served as %+v", cut, cs.cutKey, got)
		}
	}
	if keys := s.Keys(); len(keys) != len(want) || s.Len() != len(want) {
		t.Errorf("cut %d: keys %v (Len %d), want exactly %d", cut, keys, s.Len(), len(want))
	}
	atLine := cut <= 0 || cs.files[cs.seg][cut-1] == '\n'
	if d := s.Dropped(); d > 1 || atLine && d != 0 {
		t.Errorf("cut %d: Dropped = %d, want at most the one torn line", cut, d)
	}
}

func mustOpen(t *testing.T, dir string, open crashOpen, segBytes int64) crashStore {
	t.Helper()
	s, err := open(dir, segBytes)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// mustPut writes one record and, when acked is non-nil, records it as
// acknowledged.
func mustPut(t *testing.T, s crashStore, key string, v payload, acked map[string]payload) {
	t.Helper()
	if err := s.Put(key, v); err != nil {
		t.Fatal(err)
	}
	if acked != nil {
		acked[key] = v
	}
}

func mustClose(t *testing.T, s crashStore) {
	t.Helper()
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
}

// newestSegment is the last segment in name (write) order.
func newestSegment(t *testing.T, dir string) string {
	t.Helper()
	segs, err := filepath.Glob(filepath.Join(dir, "seg-*.jsonl"))
	if err != nil || len(segs) == 0 {
		t.Fatalf("no segments in %s (err=%v)", dir, err)
	}
	sort.Strings(segs)
	return segs[len(segs)-1]
}

func fileSize(t *testing.T, path string) int64 {
	t.Helper()
	fi, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	return fi.Size()
}

// snapshotDir reads every segment and sidecar in dir; lock files carry no
// state and are left out.
func snapshotDir(t *testing.T, dir string) map[string][]byte {
	t.Helper()
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	files := map[string][]byte{}
	for _, e := range ents {
		if strings.HasPrefix(e.Name(), ".lock") {
			continue
		}
		b, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		files[e.Name()] = b
	}
	return files
}
