package modelcache

import (
	"os"
	"reflect"
	"strings"
	"sync"
	"testing"

	"tsperr/internal/cell"
	"tsperr/internal/errormodel"
	"tsperr/internal/variation"
)

// testSnapshot builds a small synthetic snapshot; the cache layer does not
// care whether the tables came from real training.
func testSnapshot() *Snapshot {
	return &Snapshot{
		Scales: map[string]float64{"adder": 1.25, "ctrl": 1.1},
		Datapath: &errormodel.DatapathModel{
			AdderSlack: []variation.Canon{{Mean: 12.5, Sens: []float64{0.5, -0.25}, Rand: 1.5}},
			AdderFail:  []float64{0, 0.125},
			ShiftFail:  []float64{0, 1e-6},
			MulFail:    []float64{0, 1e-9},
			LogicFail:  1e-12,
		},
	}
}

func TestSaveLoadRoundTrip(t *testing.T) {
	dir := t.TempDir()
	key := Key(errormodel.DefaultOptions(), cell.Fingerprint())
	want := testSnapshot()
	if err := Save(dir, key, want); err != nil {
		t.Fatal(err)
	}
	got, ok := Load(dir, key)
	if !ok {
		t.Fatal("round-trip load missed")
	}
	if got.Schema != SchemaVersion || got.Key != key {
		t.Errorf("metadata = %d/%q", got.Schema, got.Key)
	}
	if !reflect.DeepEqual(got.Scales, want.Scales) {
		t.Errorf("scales = %v, want %v", got.Scales, want.Scales)
	}
	if !reflect.DeepEqual(got.Datapath, want.Datapath) {
		t.Errorf("datapath tables changed across the round trip")
	}
}

func TestKeyChangesWithOptionsAndLibrary(t *testing.T) {
	base := errormodel.DefaultOptions()
	k0 := Key(base, cell.Fingerprint())
	changed := base
	changed.WorkingRatio += 0.01
	if Key(changed, cell.Fingerprint()) == k0 {
		t.Error("changing an option must change the key")
	}
	if Key(base, cell.Fingerprint()+"x") == k0 {
		t.Error("changing the library fingerprint must change the key")
	}
	if Key(base, cell.Fingerprint()) != k0 {
		t.Error("key must be deterministic")
	}
}

func TestLoadMissOnDifferentKey(t *testing.T) {
	dir := t.TempDir()
	key := Key(errormodel.DefaultOptions(), "lib-a")
	if err := Save(dir, key, testSnapshot()); err != nil {
		t.Fatal(err)
	}
	other := Key(errormodel.DefaultOptions(), "lib-b")
	if _, ok := Load(dir, other); ok {
		t.Fatal("load under a different key must miss")
	}
	// The original entry is untouched by the unrelated miss.
	if _, ok := Load(dir, key); !ok {
		t.Fatal("original entry should survive")
	}
}

func TestLoadRemovesCorruptFile(t *testing.T) {
	dir := t.TempDir()
	key := Key(errormodel.DefaultOptions(), "lib")
	if err := os.WriteFile(Path(dir, key), []byte("not a gob stream"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, ok := Load(dir, key); ok {
		t.Fatal("corrupt file must miss")
	}
	if _, err := os.Stat(Path(dir, key)); !os.IsNotExist(err) {
		t.Error("corrupt file should have been removed")
	}
	// A rebuild can now publish cleanly over the removed entry.
	if err := Save(dir, key, testSnapshot()); err != nil {
		t.Fatal(err)
	}
	if _, ok := Load(dir, key); !ok {
		t.Fatal("rebuilt entry should load")
	}
}

// The cross-process race the same-inode guard exists for: a reader opens a
// corrupt snapshot, and before it gets to the cleanup remove, a concurrent
// writer publishes a fresh valid snapshot over the same path. The cleanup
// must spare the new file — it is not the one the reader found corrupt.
func TestCorruptCleanupSparesFreshlyPublishedSnapshot(t *testing.T) {
	dir := t.TempDir()
	key := Key(errormodel.DefaultOptions(), "lib")
	p := Path(dir, key)
	if err := os.WriteFile(p, []byte("not a gob stream"), 0o644); err != nil {
		t.Fatal(err)
	}
	// The reader's view: the corrupt file, held open across the race window.
	f, err := os.Open(p)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	// The concurrent writer wins the race and publishes a valid snapshot.
	if err := Save(dir, key, testSnapshot()); err != nil {
		t.Fatal(err)
	}
	// The reader's deferred cleanup must notice p no longer names its file.
	removeIfSameFile(f, p)
	if _, ok := Load(dir, key); !ok {
		t.Fatal("freshly published snapshot was deleted by a stale reader's cleanup")
	}

	// Control: with no intervening publish, the cleanup does remove the file.
	if err := os.WriteFile(p, []byte("corrupt again"), 0o644); err != nil {
		t.Fatal(err)
	}
	f2, err := os.Open(p)
	if err != nil {
		t.Fatal(err)
	}
	defer f2.Close()
	removeIfSameFile(f2, p)
	if _, err := os.Stat(p); !os.IsNotExist(err) {
		t.Error("unreplaced corrupt file should have been removed")
	}
}

func TestLoadRejectsKeyMismatchInsideFile(t *testing.T) {
	dir := t.TempDir()
	keyA := Key(errormodel.DefaultOptions(), "lib-a")
	keyB := Key(errormodel.DefaultOptions(), "lib-b")
	if err := Save(dir, keyA, testSnapshot()); err != nil {
		t.Fatal(err)
	}
	// Simulate a mis-filed snapshot: bytes of key A under key B's name.
	data, err := os.ReadFile(Path(dir, keyA))
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(Path(dir, keyB), data, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, ok := Load(dir, keyB); ok {
		t.Fatal("embedded key mismatch must miss")
	}
	if _, err := os.Stat(Path(dir, keyB)); !os.IsNotExist(err) {
		t.Error("mismatching file should have been removed")
	}
}

func TestConcurrentReadersAndWriters(t *testing.T) {
	dir := t.TempDir()
	key := Key(errormodel.DefaultOptions(), "lib")
	want := testSnapshot()
	if err := Save(dir, key, want); err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for j := 0; j < 20; j++ {
				if i%2 == 0 {
					if err := Save(dir, key, testSnapshot()); err != nil {
						t.Errorf("save: %v", err)
						return
					}
				} else if got, ok := Load(dir, key); ok {
					// Atomic publishes mean a reader sees a complete
					// snapshot or nothing — never torn bytes.
					if !reflect.DeepEqual(got.Scales, want.Scales) {
						t.Errorf("torn read: %v", got.Scales)
						return
					}
				}
			}
		}(i)
	}
	wg.Wait()
}

func TestSaveRejectsIncompleteSnapshot(t *testing.T) {
	dir := t.TempDir()
	for _, snap := range []*Snapshot{
		nil,
		{Datapath: testSnapshot().Datapath},
		{Scales: map[string]float64{"adder": 1}},
	} {
		if err := Save(dir, "k", snap); err == nil {
			t.Errorf("incomplete snapshot %+v must be rejected", snap)
		}
	}
}

func TestDefaultDir(t *testing.T) {
	d, err := DefaultDir()
	if err != nil {
		t.Skipf("no user cache dir in this environment: %v", err)
	}
	if !strings.HasSuffix(d, "tsperr") {
		t.Errorf("default dir %q should end in tsperr", d)
	}
}

func TestResolveDir(t *testing.T) {
	if got := ResolveDir(false, "/x"); got != "" {
		t.Errorf("disabled cache resolved to %q, want \"\"", got)
	}
	if got := ResolveDir(true, "/x"); got != "/x" {
		t.Errorf("explicit dir resolved to %q, want /x", got)
	}
	want := ""
	if d, err := DefaultDir(); err == nil {
		want = d
	}
	if got := ResolveDir(true, ""); got != want {
		t.Errorf("default dir resolved to %q, want %q", got, want)
	}
}
