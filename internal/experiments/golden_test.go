package experiments

import (
	"bytes"
	"context"
	"flag"
	"os"
	"path/filepath"
	"testing"
)

var update = flag.Bool("update", false, "rewrite the golden experiment tables")

// TestGoldenTables renders every registered experiment and compares it
// byte-for-byte against the committed golden under testdata/golden —
// the CI check that catches silent drift in the paper's reproduced
// numbers. Refresh the goldens after an intentional change with
//
//	go test -run TestGoldenTables ./internal/experiments/ -update
//
// (or `make golden`) and review the diff like any other code change.
func TestGoldenTables(t *testing.T) {
	if testing.Short() {
		t.Skip("golden regeneration is the full evaluation; skipped in -short")
	}
	for _, e := range Registry() {
		e := e
		t.Run(e.ID, func(t *testing.T) {
			t.Parallel()
			tbl, err := e.Run(context.Background())
			if err != nil {
				t.Fatalf("%s: %v", e.ID, err)
			}
			var buf bytes.Buffer
			if err := tbl.Render(&buf); err != nil {
				t.Fatalf("%s: rendering: %v", e.ID, err)
			}
			path := filepath.Join("testdata", "golden", e.ID+".txt")
			if *update {
				if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("%s: missing golden (run `make golden` and commit): %v", e.ID, err)
			}
			if !bytes.Equal(buf.Bytes(), want) {
				t.Errorf("%s: output differs from %s.\ngot:\n%s\nwant:\n%s",
					e.ID, path, buf.String(), want)
			}
		})
	}
}
