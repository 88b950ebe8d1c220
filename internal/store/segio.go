package store

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
)

// maxSegmentOff is the largest byte offset a ref can address. Rotation
// thresholds are a few MB, so this is a correctness guard against operator
// error (a hand-built 4GB segment), not a capacity limit.
const maxSegmentOff = 1<<32 - 1

// errSegmentTooLarge reports a segment whose offsets exceed the ref space.
var errSegmentTooLarge = errors.New("store: segment exceeds 4GiB; split it or compact with a smaller SegmentBytes")

// record is one log line: a key and its JSON-encoded value.
type record struct {
	Key string          `json:"k"`
	Val json.RawMessage `json:"v"`
}

// encodeRecord renders one log line (including the trailing newline).
func encodeRecord[R any](key string, v R) ([]byte, error) {
	val, err := json.Marshal(v)
	if err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	line, err := json.Marshal(record{Key: key, Val: val})
	if err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	return append(line, '\n'), nil
}

// segWriter is a store's one segment writer: Put and Compact both append
// through it. It owns the segments named dir/<prefix><seq>.jsonl that this
// store may rewrite and delete (plus, for a Disk, every other segment in
// the directory), appends record lines to the newest of them, and seals
// each full segment with its sidecar before starting the next. Callers
// hold the store's wmu.
type segWriter struct {
	dir, prefix string
	seq         int              // sequence number of the newest owned segment
	live        map[int32]string // id → path of every owned segment
	durable     bool             // fsync each segment at seal (compaction)
	tab         *segTable
	met         *atomic.Pointer[Metrics]

	f       *os.File    // active segment; nil until the first append
	id      int32       // its id in the segment table
	path    string      // its path
	size    int64       // its length in bytes
	torn    bool        // last write failed: rotate before appending again
	pending []sideEntry // its records, for its sidecar
}

// append writes one record line (newline included) and reports where it
// landed. It first rotates when no segment is open, the active one has
// reached limit bytes or would overflow the ref offset space, or the last
// write failed. The write is a single syscall with no userspace buffering,
// so a returned ref is on the page cache even if the process dies.
func (w *segWriter) append(key string, line []byte, limit int64) (ref, error) {
	if w.f == nil || w.size >= limit || w.torn || w.size+int64(len(line)) > maxSegmentOff {
		if err := w.rotate(); err != nil {
			return ref{}, err
		}
	}
	if _, err := w.f.Write(line); err != nil {
		// A short write may have left a torn, newline-less tail; another
		// append would glue onto it and corrupt BOTH records on reload.
		// Rotate before the next write — reload then drops only the torn
		// line, whose caller already saw the failure.
		w.torn = true
		return ref{}, fmt.Errorf("store: %w", err)
	}
	r := ref{off: uint32(w.size), llen: uint32(len(line) - 1), seg: w.id}
	w.pending = append(w.pending, sideEntry{Off: r.off, Len: r.llen, Key: key})
	w.size += int64(len(line))
	return r, nil
}

// rotate seals the active segment and opens the next one.
func (w *segWriter) rotate() error {
	if err := w.seal(); err != nil {
		return err
	}
	w.torn = false
	w.seq++
	path := filepath.Join(w.dir, fmt.Sprintf("%s%08d.jsonl", w.prefix, w.seq))
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return fmt.Errorf("store: %w", err)
	}
	w.f, w.path, w.size, w.pending = f, path, 0, nil
	w.id = w.tab.add(path)
	w.live[w.id] = path
	w.met.Load().rotated()
	return nil
}

// seal closes the active segment, writing its sidecar first so the next
// open — and every other owner tailing it — never replays it. A durable
// writer fsyncs the segment before that. Sidecar failures are swallowed:
// the sidecar is a cache, and replay rebuilds it.
func (w *segWriter) seal() error {
	if w.f == nil {
		return nil
	}
	var err error
	if w.durable {
		err = w.f.Sync()
	}
	if writeSidecar(w.path, w.size, 0, w.pending) == nil {
		w.met.Load().sidecarRebuild()
	}
	if cerr := w.f.Close(); err == nil {
		err = cerr
	}
	w.f, w.pending = nil, nil
	if err != nil {
		return fmt.Errorf("store: %w", err)
	}
	return nil
}

// sync forces the active segment to stable storage.
func (w *segWriter) sync() error {
	if w.f == nil {
		return nil
	}
	if err := w.f.Sync(); err != nil {
		return fmt.Errorf("store: %w", err)
	}
	return nil
}

// segFile is one segment in the table: its path and a lazily opened
// read-only handle used by Get-time fetches. The handle is independent of
// the writer's append handle, so reads never seek the write position.
type segFile struct {
	path string
	mu   sync.Mutex
	f    *os.File
}

// readAt fills buf from the segment at off, opening the read handle on
// first use.
func (s *segFile) readAt(buf []byte, off int64) error {
	s.mu.Lock()
	if s.f == nil {
		f, err := os.Open(s.path)
		if err != nil {
			s.mu.Unlock()
			return err
		}
		s.f = f
	}
	f := s.f
	s.mu.Unlock()
	_, err := f.ReadAt(buf, off)
	return err
}

func (s *segFile) close() {
	s.mu.Lock()
	if s.f != nil {
		s.f.Close()
		s.f = nil
	}
	s.mu.Unlock()
}

// segTable maps ref.seg ids to segment files. Ids are append-only — a
// compacted-away segment keeps its id with a nil entry, so a concurrent
// reader holding a stale ref fails cleanly and retries through the index
// rather than reading the wrong file.
type segTable struct {
	mu   sync.RWMutex
	segs []*segFile
}

// add registers a segment and returns its id.
func (t *segTable) add(path string) int32 {
	t.mu.Lock()
	t.segs = append(t.segs, &segFile{path: path})
	id := int32(len(t.segs) - 1)
	t.mu.Unlock()
	return id
}

func (t *segTable) get(id int32) *segFile {
	t.mu.RLock()
	defer t.mu.RUnlock()
	if id < 0 || int(id) >= len(t.segs) {
		return nil
	}
	return t.segs[id]
}

// drop forgets a compacted-away segment and closes its read handle.
func (t *segTable) drop(id int32) {
	t.mu.Lock()
	var s *segFile
	if id >= 0 && int(id) < len(t.segs) {
		s, t.segs[id] = t.segs[id], nil
	}
	t.mu.Unlock()
	if s != nil {
		s.close()
	}
}

func (t *segTable) closeAll() {
	t.mu.Lock()
	segs := t.segs
	t.segs = nil
	t.mu.Unlock()
	for _, s := range segs {
		if s != nil {
			s.close()
		}
	}
}

// fetchRecord reads and decodes the record a ref points at, verifying the
// stored key matches the requested one (insurance against a sidecar or
// index bug ever serving another record's bytes). The error distinguishes
// "segment gone" (retry through the index — compaction moved the record)
// from a decode failure.
func fetchRecord[R any](tab *segTable, rf ref, key string) (R, error) {
	var v R
	sf := tab.get(rf.seg)
	if sf == nil {
		return v, errStaleRef
	}
	buf := make([]byte, rf.llen)
	if err := sf.readAt(buf, int64(rf.off)); err != nil {
		return v, errStaleRef
	}
	var rec record
	if err := json.Unmarshal(buf, &rec); err != nil {
		return v, fmt.Errorf("store: record at %s+%d: %w", sf.path, rf.off, err)
	}
	if rec.Key != key {
		return v, fmt.Errorf("store: record at %s+%d holds key %q, want %q", sf.path, rf.off, rec.Key, key)
	}
	if err := json.Unmarshal(rec.Val, &v); err != nil {
		return v, fmt.Errorf("store: record at %s+%d: %w", sf.path, rf.off, err)
	}
	return v, nil
}

// errStaleRef marks a fetch that raced compaction: the caller re-resolves
// the key through the index and retries once.
var errStaleRef = errors.New("store: stale segment ref")

// scanResult is what scanning a segment (or a segment tail) yields.
type scanResult struct {
	entries  []sideEntry // valid records, in file order
	dropped  int         // complete lines that failed to parse
	parsed   int         // lines JSON-parsed (the replay cost a sidecar avoids)
	consumed int64       // bytes up to and including the last complete line
	torn     bool        // trailing bytes with no newline
}

// scanSegment replays segment bytes from base, collecting one sideEntry per
// valid record line. Lines of any length are handled — the reader grows per
// line instead of imposing a fixed cap (the old bufio.Scanner silently
// stopped at 16MB, truncating the rest of the segment). Only the record
// envelope is parsed; values stay raw bytes on disk until a Get wants them.
func scanSegment(r io.Reader, base int64) (scanResult, error) {
	res := scanResult{}
	br := bufio.NewReaderSize(r, 256<<10)
	off := base
	var long []byte // scratch for lines longer than the reader buffer
	for {
		line, err := br.ReadSlice('\n')
		if errors.Is(err, bufio.ErrBufferFull) {
			long = append(long[:0], line...)
			for errors.Is(err, bufio.ErrBufferFull) {
				line, err = br.ReadSlice('\n')
				long = append(long, line...)
			}
			line = long
		}
		if len(line) > 0 && err == nil || len(line) > 0 && errors.Is(err, io.EOF) {
			complete := line[len(line)-1] == '\n'
			if !complete {
				res.torn = true
				return res, nil
			}
			llen := int64(len(line)) - 1
			if off > maxSegmentOff || llen > maxSegmentOff {
				return res, errSegmentTooLarge
			}
			body := line[:llen]
			if len(body) > 0 {
				res.parsed++
				var rec record
				if json.Unmarshal(body, &rec) != nil || rec.Key == "" {
					res.dropped++
				} else {
					res.entries = append(res.entries, sideEntry{
						Off: uint32(off), Len: uint32(llen), Key: rec.Key,
					})
				}
			}
			off += llen + 1
			res.consumed = off - base
		}
		if err != nil {
			if errors.Is(err, io.EOF) {
				return res, nil
			}
			return res, fmt.Errorf("store: %w", err)
		}
	}
}
