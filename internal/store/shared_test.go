package store

import (
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"testing"
)

func TestSharedCrossOwnerVisibility(t *testing.T) {
	dir := t.TempDir()
	a, err := OpenShared[payload](dir, "alice")
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	b, err := OpenShared[payload](dir, "bob")
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()

	if err := a.Put("k1", pay(1)); err != nil {
		t.Fatal(err)
	}
	// b has never seen k1; the Get-miss path must refresh and find it.
	if v, ok := b.Get("k1"); !ok || v != pay(1) {
		t.Fatalf("b.Get(k1) = %v, %v; want cross-owner hit", v, ok)
	}
	if err := b.Put("k2", pay(2)); err != nil {
		t.Fatal(err)
	}
	if v, ok := a.Get("k2"); !ok || v != pay(2) {
		t.Fatalf("a.Get(k2) = %v, %v; want cross-owner hit", v, ok)
	}
	// Incremental: a second refresh applies nothing new.
	if n, err := a.Refresh(); err != nil || n != 0 {
		t.Fatalf("Refresh after full catch-up applied %d records, err %v", n, err)
	}
	if a.Len() != 2 || b.Len() != 2 {
		t.Fatalf("Len: a=%d b=%d, want 2/2", a.Len(), b.Len())
	}
}

// TestSharedRefreshDashPrefixOwners pins the own-vs-foreign partition rule
// on Refresh: owner "w1" must keep tailing owner "w1-2"'s segments even
// though their names start with w1's "seg-w1-" prefix. A loose prefix check
// would classify them as w1's own and never tail bytes appended after open.
func TestSharedRefreshDashPrefixOwners(t *testing.T) {
	dir := t.TempDir()
	short, err := OpenShared[payload](dir, "w1")
	if err != nil {
		t.Fatal(err)
	}
	defer short.Close()
	long, err := OpenShared[payload](dir, "w1-2")
	if err != nil {
		t.Fatal(err)
	}
	defer long.Close()

	// Appended after short opened, so only Refresh can surface it.
	if err := long.Put("k-long", pay(42)); err != nil {
		t.Fatal(err)
	}
	if v, ok := short.Get("k-long"); !ok || v != pay(42) {
		t.Fatalf("w1 must tail w1-2's segments on refresh: got %v, %v", v, ok)
	}
	// And the other direction: "w1"'s segments are plainly foreign to "w1-2".
	if err := short.Put("k-short", pay(7)); err != nil {
		t.Fatal(err)
	}
	if v, ok := long.Get("k-short"); !ok || v != pay(7) {
		t.Fatalf("w1-2 must tail w1's segments: got %v, %v", v, ok)
	}
}

func TestSharedOwnerLeaseExclusive(t *testing.T) {
	dir := t.TempDir()
	a, err := OpenShared[payload](dir, "w1")
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	if _, err := OpenShared[payload](dir, "w1"); err == nil {
		t.Fatal("second open of the same owner lease must fail")
	}
	if _, err := OpenShared[payload](dir, "w1/../evil"); err == nil {
		t.Fatal("path-unsafe owner must be rejected")
	}
	if _, err := OpenShared[payload](dir, ""); err == nil {
		t.Fatal("empty owner must be rejected")
	}
}

// A Disk owns and compacts every segment in its directory, so it must never
// open while a fleet owner is live: compacting would delete the owner's
// active segment, and the owner's next acknowledged Put would vanish on
// reopen. Both opening orders are refused; owners still coexist, and the
// Disk opens once every owner has closed.
func TestDiskAndFleetOwnersExcludeEachOther(t *testing.T) {
	dir := t.TempDir()
	w0, err := OpenShared[payload](dir, "w0")
	if err != nil {
		t.Fatal(err)
	}
	if err := w0.Put("a", pay(1)); err != nil {
		t.Fatal(err)
	}
	if d, err := OpenDisk[payload](dir); err == nil {
		d.Close()
		t.Fatal("OpenDisk must be refused while a Shared owner is live")
	}
	w1, err := OpenShared[payload](dir, "w1")
	if err != nil {
		t.Fatalf("two Shared owners must coexist: %v", err)
	}
	if err := w0.Put("b", pay(2)); err != nil {
		t.Fatal(err)
	}
	if err := w0.Close(); err != nil {
		t.Fatal(err)
	}
	if d, err := OpenDisk[payload](dir); err == nil {
		d.Close()
		t.Fatal("OpenDisk must be refused while any Shared owner is live")
	}
	if err := w1.Close(); err != nil {
		t.Fatal(err)
	}
	d, err := OpenDisk[payload](dir)
	if err != nil {
		t.Fatalf("OpenDisk after every owner closed: %v", err)
	}
	defer d.Close()
	if _, err := OpenShared[payload](dir, "w2"); err == nil {
		t.Fatal("OpenShared must be refused while a Disk holds the directory")
	}
	for i, k := range []string{"a", "b"} {
		if v, ok := d.Get(k); !ok || v != pay(i+1) {
			t.Fatalf("Get(%s) = %v, %v; acknowledged owner write lost", k, v, ok)
		}
	}
}

func TestSharedIgnoresTornForeignTail(t *testing.T) {
	dir := t.TempDir()
	w, err := OpenShared[payload](dir, "w1")
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()

	// Simulate another owner mid-write: one complete record, then a torn line.
	foreign := filepath.Join(dir, "seg-w2-00000001.jsonl")
	complete := `{"k":"done","v":{"Median":1,"Mean":2,"Ranks":3}}` + "\n"
	if err := os.WriteFile(foreign, []byte(complete+`{"k":"torn","v":{"Med`), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, ok := w.Get("done"); !ok {
		t.Fatal("complete foreign line must be visible")
	}
	if _, ok := w.Get("torn"); ok {
		t.Fatal("torn tail must stay invisible until completed")
	}
	if w.Dropped() != 0 {
		t.Fatalf("torn tail must not count as dropped, got %d", w.Dropped())
	}
	// The writer finishes the line: the next refresh picks it up where the
	// offset left off.
	f, err := os.OpenFile(foreign, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteString(`ian":5,"Mean":6,"Ranks":7}}` + "\n"); err != nil {
		t.Fatal(err)
	}
	f.Close()
	if v, ok := w.Get("torn"); !ok || v != (payload{Median: 5, Mean: 6, Ranks: 7}) {
		t.Fatalf("completed tail must resolve, got %v, %v", v, ok)
	}
}

func TestSharedReopenReplaysOwnAndForeign(t *testing.T) {
	dir := t.TempDir()
	a, err := OpenShared[payload](dir, "a")
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		if err := a.Put(fmt.Sprintf("a-%d", i), pay(i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := a.Close(); err != nil {
		t.Fatal(err)
	}
	b, err := OpenShared[payload](dir, "b")
	if err != nil {
		t.Fatal(err)
	}
	if err := b.Put("b-0", pay(9)); err != nil {
		t.Fatal(err)
	}
	if err := b.Close(); err != nil {
		t.Fatal(err)
	}

	a2, err := OpenShared[payload](dir, "a")
	if err != nil {
		t.Fatal(err)
	}
	defer a2.Close()
	want := []string{"a-0", "a-1", "a-2", "a-3", "a-4", "b-0"}
	if !reflect.DeepEqual(a2.Keys(), want) {
		t.Fatalf("reopened keys = %v, want %v", a2.Keys(), want)
	}
	// New writes must not collide with the previous run's segments.
	if err := a2.Put("a-5", pay(5)); err != nil {
		t.Fatal(err)
	}
	segs, _ := filepath.Glob(filepath.Join(dir, "seg-a-*.jsonl"))
	if len(segs) != 2 {
		t.Fatalf("own segments after reopen = %v, want 2", segs)
	}
}

func TestSharedInteropWithDisk(t *testing.T) {
	dir := t.TempDir()
	// A plain Disk store seeds the directory...
	d, err := OpenDisk[payload](dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := d.Put("seed", pay(1)); err != nil {
		t.Fatal(err)
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	// ...a fleet writes through Shared leases...
	w, err := OpenShared[payload](dir, "w1")
	if err != nil {
		t.Fatal(err)
	}
	if v, ok := w.Get("seed"); !ok || v != pay(1) {
		t.Fatalf("shared must read Disk segments, got %v, %v", v, ok)
	}
	if err := w.Put("fleet", pay(2)); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	// ...and a later Disk open replays both, resuming its own numbering
	// without colliding with the owner-named segments.
	d2, err := OpenDisk[payload](dir)
	if err != nil {
		t.Fatal(err)
	}
	defer d2.Close()
	if v, ok := d2.Get("fleet"); !ok || v != pay(2) {
		t.Fatalf("Disk must replay owner segments, got %v, %v", v, ok)
	}
	if err := d2.Put("after", pay(3)); err != nil {
		t.Fatal(err)
	}
	if d2.Dropped() != 0 {
		t.Fatalf("Dropped = %d, want 0", d2.Dropped())
	}
	segs, _ := filepath.Glob(filepath.Join(dir, "seg-*.jsonl"))
	names := map[string]bool{}
	for _, s := range segs {
		if names[filepath.Base(s)] {
			t.Fatalf("duplicate segment name in %v", segs)
		}
		names[filepath.Base(s)] = true
	}
	if !names["seg-00000002.jsonl"] {
		t.Fatalf("Disk reopen must resume plain numbering, got %v", segs)
	}
}

func TestSharedRotationAndSync(t *testing.T) {
	dir := t.TempDir()
	s, err := OpenShared[payload](dir, "w0")
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if s.Dir() != dir || s.Owner() != "w0" {
		t.Fatalf("Dir/Owner = %q/%q, want %q/%q", s.Dir(), s.Owner(), dir, "w0")
	}

	// Force a rotation on every append: each Put after the first must open
	// a fresh owner-named segment, and every record must survive a reopen.
	s.SegmentBytes = 1
	const n = 5
	for i := 0; i < n; i++ {
		if err := s.Put(fmt.Sprintf("k%d", i), pay(i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Sync(); err != nil {
		t.Fatal(err)
	}
	segs, err := filepath.Glob(filepath.Join(dir, "seg-w0-*.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	if len(segs) < n {
		t.Fatalf("rotation produced %d segments, want >= %d", len(segs), n)
	}

	r, err := OpenShared[payload](dir, "reader")
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if r.Len() != n {
		t.Fatalf("reader replayed %d records across rotated segments, want %d", r.Len(), n)
	}
	for i := 0; i < n; i++ {
		if v, ok := r.Get(fmt.Sprintf("k%d", i)); !ok || v != pay(i) {
			t.Fatalf("Get(k%d) = %v, %v after rotation", i, v, ok)
		}
	}
}
