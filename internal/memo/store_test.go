package memo

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"testing"

	"abw/internal/conflict"
	"abw/internal/indepset"
	"abw/internal/radio"
	"abw/internal/topology"
)

// failEnumerate swaps the cache's enumeration for one that fails the
// test if reached, restoring the real walk on cleanup — the strongest
// possible form of "this lookup ran zero enumeration".
func failEnumerate(t *testing.T) {
	t.Helper()
	orig := enumerateFn
	enumerateFn = func(ctx context.Context, m conflict.Model, links []topology.LinkID, opts indepset.Options) ([]indepset.Set, bool, int64, error) {
		t.Error("enumeration ran where a disk hit was required")
		return orig(ctx, m, links, opts)
	}
	t.Cleanup(func() { enumerateFn = orig })
}

func openTestStore(t *testing.T, dir string, maxBytes int64) *Store {
	t.Helper()
	st, err := OpenStore(dir, maxBytes)
	if err != nil {
		t.Fatalf("OpenStore(%q): %v", dir, err)
	}
	t.Cleanup(func() { st.Close() })
	return st
}

// familyFiles lists the family files currently in dir.
func familyFiles(t *testing.T, dir string) []string {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var out []string
	for _, e := range entries {
		if isStoreName(e.Name()) {
			out = append(out, e.Name())
		}
	}
	return out
}

// assertIdentity pins the satellite counter identity on a snapshot.
func assertIdentity(t *testing.T, st Stats, label string) {
	t.Helper()
	if st.Lookups != st.Hits+st.DiskHits+st.DeltaHits+st.Misses+st.Bypasses+st.SingleflightMerges {
		t.Fatalf("%s: counter identity broken: lookups=%d != hits=%d + diskHits=%d + deltaHits=%d + misses=%d + bypasses=%d + merges=%d",
			label, st.Lookups, st.Hits, st.DiskHits, st.DeltaHits, st.Misses, st.Bypasses, st.SingleflightMerges)
	}
}

// TestKillAndRestartWarmsFromDisk is the acceptance scenario: populate
// the cache with a spill directory, drop the in-memory Cache entirely
// (the "kill"), rebuild against the same directory, and require the
// first lookup to be a disk hit returning a byte-identical family with
// zero enumeration.
func TestKillAndRestartWarmsFromDisk(t *testing.T) {
	net := testNetwork(t, 7, 3)
	m := conflict.NewPhysical(net)
	links := allLinks(net)
	dir := t.TempDir()

	fresh, err := indepset.EnumerateContext(context.Background(), m, links, indepset.Options{})
	if err != nil {
		t.Fatal(err)
	}

	// Process one: miss, enumerate, write-behind.
	c1 := New(0)
	c1.SetStore(openTestStore(t, dir, 0))
	if _, err := c1.EnumerateContext(context.Background(), m, links, indepset.Options{}); err != nil {
		t.Fatal(err)
	}
	st1 := c1.Stats()
	if st1.Misses != 1 || st1.DiskHits != 0 || st1.DiskMisses != 1 {
		t.Fatalf("first process stats: %+v", st1)
	}
	assertIdentity(t, st1, "first process")
	if err := c1.Close(); err != nil { // flush + release: the "kill"
		t.Fatal(err)
	}
	if st := c1.Stats(); st.DiskBytes <= 0 {
		t.Fatalf("family not spilled before the kill: %+v", st)
	}
	if n := familyFiles(t, dir); len(n) != 1 {
		t.Fatalf("expected one family file, found %v", n)
	}

	// Process two: same directory, fresh Cache, zero enumeration.
	failEnumerate(t)
	c2 := New(0)
	c2.SetStore(openTestStore(t, dir, 0))
	got, err := c2.EnumerateContext(context.Background(), m, links, indepset.Options{})
	if err != nil {
		t.Fatal(err)
	}
	assertFamiliesEqual(t, fresh, got, "restart warm-up")
	st2 := c2.Stats()
	if st2.DiskHits != 1 || st2.Misses != 0 || st2.Hits != 0 {
		t.Fatalf("restart stats: %+v", st2)
	}
	assertIdentity(t, st2, "restart")

	// The disk hit also warmed the in-memory cache.
	if _, err := c2.EnumerateContext(context.Background(), m, links, indepset.Options{}); err != nil {
		t.Fatal(err)
	}
	if st := c2.Stats(); st.Hits != 1 {
		t.Fatalf("second lookup should be a memory hit: %+v", st)
	}
}

// TestCorruptionDegradesToFreshEnumeration injects every corruption
// class the header guards against — truncation, a flipped payload
// byte, a future or previous format version, an alien key — and
// requires each to degrade to a fresh enumeration with DiskErrors
// incremented, the bad file deleted, and no error surfaced to the
// query.
func TestCorruptionDegradesToFreshEnumeration(t *testing.T) {
	net := testNetwork(t, 7, 3)
	m := conflict.NewPhysical(net)
	links := allLinks(net)

	fresh, err := indepset.EnumerateContext(context.Background(), m, links, indepset.Options{})
	if err != nil {
		t.Fatal(err)
	}

	corruptions := []struct {
		name    string
		corrupt func(t *testing.T, path string)
	}{
		{"truncated", func(t *testing.T, path string) {
			data := readFile(t, path)
			writeFile(t, path, data[:len(data)/2])
		}},
		{"flipped byte", func(t *testing.T, path string) {
			data := readFile(t, path)
			data[len(data)-1] ^= 0xFF // inside the payload
			writeFile(t, path, data)
		}},
		{"wrong version", func(t *testing.T, path string) {
			data := readFile(t, path)
			data[len(storeMagic)-1]++ // future format version
			writeFile(t, path, data)
		}},
		{"previous version", func(t *testing.T, path string) {
			data := readFile(t, path)
			data[len(storeMagic)-1]-- // an older format, now stale
			writeFile(t, path, data)
		}},
		{"flipped header byte", func(t *testing.T, path string) {
			data := readFile(t, path)
			data[len(storeMagic)+3] ^= 0x01 // inside the checksum
			writeFile(t, path, data)
		}},
	}
	for _, tc := range corruptions {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			seed := New(0)
			seed.SetStore(openTestStore(t, dir, 0))
			if _, err := seed.EnumerateContext(context.Background(), m, links, indepset.Options{}); err != nil {
				t.Fatal(err)
			}
			seed.FlushStore()
			files := familyFiles(t, dir)
			if len(files) != 1 {
				t.Fatalf("expected one family file, found %v", files)
			}
			tc.corrupt(t, filepath.Join(dir, files[0]))

			c := New(0)
			c.SetStore(openTestStore(t, dir, 0))
			got, err := c.EnumerateContext(context.Background(), m, links, indepset.Options{})
			if err != nil {
				t.Fatalf("corruption surfaced as a query error: %v", err)
			}
			assertFamiliesEqual(t, fresh, got, tc.name)
			st := c.Stats()
			if st.DiskErrors != 1 || st.DiskHits != 0 || st.Misses != 1 {
				t.Fatalf("%s stats: %+v", tc.name, st)
			}
			assertIdentity(t, st, tc.name)
			// The bad file is gone; the re-enumerated family was
			// re-spilled behind the query.
			c.FlushStore()
			refreshed := familyFiles(t, dir)
			if len(refreshed) != 1 || refreshed[0] != files[0] {
				t.Fatalf("bad file not replaced by a fresh spill: %v", refreshed)
			}
			if _, _, err := decodeFamily(mustKey(t, m, links), readFile(t, filepath.Join(dir, refreshed[0]))); err != nil {
				t.Fatalf("re-spilled family does not revalidate: %v", err)
			}
		})
	}
}

// TestAlienKeyedFileRejected renames a valid family file to the name
// of a different key: the content checksum still passes, but the
// embedded key must not — the file is alien, deleted, and counted.
func TestAlienKeyedFileRejected(t *testing.T) {
	net := testNetwork(t, 7, 3)
	m := conflict.NewPhysical(net)
	links := allLinks(net)
	if len(links) < 3 {
		t.Skip("degenerate topology")
	}
	dir := t.TempDir()
	seed := New(0)
	seed.SetStore(openTestStore(t, dir, 0))
	if _, err := seed.EnumerateContext(context.Background(), m, links, indepset.Options{}); err != nil {
		t.Fatal(err)
	}
	seed.FlushStore()
	files := familyFiles(t, dir)
	if len(files) != 1 {
		t.Fatalf("expected one family file, found %v", files)
	}
	otherKey := mustKey(t, m, links[:len(links)-1])
	alien := filepath.Join(dir, fileName(otherKey))
	if err := os.Rename(filepath.Join(dir, files[0]), alien); err != nil {
		t.Fatal(err)
	}

	c := New(0)
	c.SetStore(openTestStore(t, dir, 0))
	if _, err := c.EnumerateContext(context.Background(), m, links[:len(links)-1], indepset.Options{}); err != nil {
		t.Fatal(err)
	}
	st := c.Stats()
	if st.DiskErrors != 1 || st.DiskHits != 0 {
		t.Fatalf("alien file stats: %+v", st)
	}
	assertIdentity(t, st, "alien")
}

// TestDiskBudgetPrunesOldest pins the on-disk byte budget: writing
// families past the budget deletes the oldest files first, and a load
// refreshes a file's recency so it survives the next prune.
func TestDiskBudgetPrunesOldest(t *testing.T) {
	famA := syntheticFamily(1, 3)
	famB := syntheticFamily(100, 3)
	famC := syntheticFamily(200, 3)
	keyA, keyB, keyC := "key-A", "key-B", "key-C"
	one := int64(len(encodeFamily(keyA, famA, 5)))

	// Budget for two families (the keys share a length, so sizes match).
	dir := t.TempDir()
	st := openTestStore(t, dir, 2*one+one/2)
	st.put(keyA, famA, 5)
	st.put(keyB, famB, 5)
	// Touch A: it becomes most recent, so the next prune must take B.
	if _, _, ok := st.load(keyA); !ok {
		t.Fatal("load A after put")
	}
	st.put(keyC, famC, 5)

	if _, _, _, bytes := st.statsSnapshot(); bytes > 2*one+one/2 {
		t.Fatalf("disk bytes %d over budget", bytes)
	}
	if got := len(familyFiles(t, dir)); got != 2 {
		t.Fatalf("expected 2 files after pruning, got %d", got)
	}
	if _, _, ok := st.load(keyB); ok {
		t.Fatal("oldest unreferenced family (B) should have been pruned")
	}
	if _, _, ok := st.load(keyA); !ok {
		t.Fatal("recently loaded family (A) should have survived the prune")
	}
	if _, _, ok := st.load(keyC); !ok {
		t.Fatal("newest family (C) should have survived the prune")
	}
}

// TestDiskBudgetOversizedFamily mirrors the in-memory rule: a family
// larger than the whole disk budget is written and immediately pruned,
// leaving the directory within budget (here: empty).
func TestDiskBudgetOversizedFamily(t *testing.T) {
	fam := syntheticFamily(1, 64)
	key := "oversized"
	dir := t.TempDir()
	st := openTestStore(t, dir, 16) // far below one encoded family
	st.put(key, fam, 64)
	if got := familyFiles(t, dir); len(got) != 0 {
		t.Fatalf("oversized family not self-pruned: %v", got)
	}
	if _, _, _, bytes := st.statsSnapshot(); bytes != 0 {
		t.Fatalf("disk bytes %d after self-prune, want 0", bytes)
	}
}

// TestOpenStorePrunesExistingOverBudget seeds a directory beyond the
// budget and reopens it: the scan must prune oldest-first down to the
// budget without touching non-store files.
func TestOpenStorePrunesExistingOverBudget(t *testing.T) {
	dir := t.TempDir()
	seed := openTestStore(t, dir, 0)
	var one int64
	for i := 0; i < 4; i++ {
		key := fmt.Sprintf("key-%d", i)
		seed.put(key, syntheticFamily(topology.LinkID(10*i+1), 3), 5)
		one = int64(len(encodeFamily(key, syntheticFamily(topology.LinkID(10*i+1), 3), 5)))
	}
	bystander := filepath.Join(dir, "README.txt")
	writeFile(t, bystander, []byte("not a family file"))
	seed.Close()

	st := openTestStore(t, dir, 2*one+one/2)
	if got := len(familyFiles(t, dir)); got != 2 {
		t.Fatalf("reopen kept %d family files, want 2", got)
	}
	if _, _, ok := st.load("key-3"); !ok {
		t.Fatal("newest seeded family should survive the reopen prune")
	}
	if _, _, ok := st.load("key-0"); ok {
		t.Fatal("oldest seeded family should have been pruned at reopen")
	}
	if _, err := os.Stat(bystander); err != nil {
		t.Fatalf("non-store file was touched: %v", err)
	}
}

// TestStoreRoundTripBytes pins the encoding contract directly: encode
// → decode is identity, including exact rate bit patterns and cached
// set keys.
func TestStoreRoundTripBytes(t *testing.T) {
	fam := []indepset.Set{
		indepset.NewSet(conflict.Couple{Link: 2, Rate: 5.5}, conflict.Couple{Link: 7, Rate: 54}),
		indepset.NewSet(conflict.Couple{Link: 3, Rate: 0.25}),
	}
	if conflict.CompareCouples(fam[1].Couples, fam[0].Couples) < 0 {
		fam[0], fam[1] = fam[1], fam[0]
	}
	const key = "some|cache|key"
	const explored = int64(17)
	got, gotExplored, err := decodeFamily(key, encodeFamily(key, fam, explored))
	if err != nil {
		t.Fatalf("round trip: %v", err)
	}
	assertFamiliesEqual(t, fam, got, "round trip")
	if gotExplored != explored {
		t.Fatalf("exploration count round trip: got %d, want %d", gotExplored, explored)
	}

	if _, _, err := decodeFamily("different|key", encodeFamily(key, fam, explored)); err == nil {
		t.Fatal("decode under a different key must fail (alien)")
	}
	if _, _, err := decodeFamily(key, encodeFamily(key, nil, 0)); err != nil {
		t.Fatalf("empty family must round-trip: %v", err)
	}
	// An exploration count below the set count cannot come from a real
	// walk (every emitted set was itself explored) — revalidation rejects
	// it rather than seeding delta chains with a bogus accounting base.
	if _, _, err := decodeFamily(key, encodeFamily(key, fam, 1)); err == nil {
		t.Fatal("exploration count below set count must fail revalidation")
	}
}

// TestWriteBehindDoesNotBlockQueries floods the write queue far past
// its depth: enqueue must never block, drops are counted as disk
// errors, and the store stays consistent.
func TestWriteBehindDropsWhenSaturated(t *testing.T) {
	dir := t.TempDir()
	st := openTestStore(t, dir, 0)
	const n = 4 * writeQueueDepth
	for i := 0; i < n; i++ {
		st.enqueue(fmt.Sprintf("key-%d", i), syntheticFamily(topology.LinkID(i*10+1), 2), 3)
	}
	st.Flush()
	_, _, errors, _ := st.statsSnapshot()
	written := int64(len(familyFiles(t, dir)))
	if written+errors < n {
		t.Fatalf("%d written + %d dropped < %d enqueued", written, errors, n)
	}
	if written == 0 {
		t.Fatal("write-behind wrote nothing")
	}
}

// TestEnqueueAfterCloseCountsError pins the lifecycle rule: spills
// enqueued after Close are dropped and counted, never panic.
func TestEnqueueAfterCloseCountsError(t *testing.T) {
	st := openTestStore(t, t.TempDir(), 0)
	st.Close()
	st.Close() // idempotent
	st.enqueue("key", syntheticFamily(1, 2), 3)
	if _, _, errors, _ := st.statsSnapshot(); errors != 1 {
		t.Fatalf("post-close enqueue errors = %d, want 1", errors)
	}
	st.Flush() // must not hang on a closed store
}

// syntheticFamily builds a small valid family (strictly link-sorted
// couples, sets strictly in family order) without running an
// enumeration.
func syntheticFamily(base topology.LinkID, nsets int) []indepset.Set {
	sets := make([]indepset.Set, 0, nsets)
	for i := 0; i < nsets; i++ {
		sets = append(sets, indepset.NewSet(
			conflict.Couple{Link: base + topology.LinkID(2*i), Rate: radio.Rate(6 * (i + 1))},
			conflict.Couple{Link: base + topology.LinkID(2*i+1), Rate: 54},
		))
	}
	slices.SortFunc(sets, func(a, b indepset.Set) int { return conflict.CompareCouples(a.Couples, b.Couples) })
	return sets
}

func mustKey(t *testing.T, m conflict.Model, links []topology.LinkID) string {
	t.Helper()
	key, ok := Key(m, links, indepset.Options{})
	if !ok {
		t.Fatal("model not fingerprintable")
	}
	return key
}

func readFile(t *testing.T, path string) []byte {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

func writeFile(t *testing.T, path string, data []byte) {
	t.Helper()
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
}
