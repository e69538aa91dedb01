// Package experiments reproduces every table and figure of the paper's
// evaluation (and the worked numeric examples embedded in its text) as
// runnable drivers. Each driver returns a Table that renders the same
// rows/series the paper reports; the bench harness at the repository
// root and cmd/abwsim both execute them. See DESIGN.md Sec. 2 for the
// experiment index and EXPERIMENTS.md for paper-vs-measured results.
package experiments

import (
	"context"
	"fmt"
	"io"
	"runtime"
	"strings"
	"sync"
)

// Table is a rendered experiment result.
type Table struct {
	ID     string
	Title  string
	Header []string
	Rows   [][]string
	// Notes carry the paper-vs-measured commentary.
	Notes []string
}

// AddRow appends a row of cells.
func (t *Table) AddRow(cells ...string) {
	t.Rows = append(t.Rows, cells)
}

// AddNote appends a commentary line.
func (t *Table) AddNote(format string, args ...interface{}) {
	t.Notes = append(t.Notes, fmt.Sprintf(format, args...))
}

// Render writes the table as aligned plain text.
func (t *Table) Render(w io.Writer) error {
	if _, err := fmt.Fprintf(w, "== %s: %s ==\n", t.ID, t.Title); err != nil {
		return err
	}
	widths := make([]int, len(t.Header))
	for i, h := range t.Header {
		widths[i] = len(h)
	}
	for _, row := range t.Rows {
		for i, c := range row {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	line := func(cells []string) string {
		parts := make([]string, 0, len(cells))
		for i, c := range cells {
			w := len(c)
			if i < len(widths) {
				w = widths[i]
			}
			parts = append(parts, fmt.Sprintf("%-*s", w, c))
		}
		return strings.Join(parts, "  ")
	}
	if len(t.Header) > 0 {
		if _, err := fmt.Fprintln(w, line(t.Header)); err != nil {
			return err
		}
		total := len(t.Header) - 1
		for _, wd := range widths {
			total += wd + 1
		}
		if _, err := fmt.Fprintln(w, strings.Repeat("-", total)); err != nil {
			return err
		}
	}
	for _, row := range t.Rows {
		if _, err := fmt.Fprintln(w, line(row)); err != nil {
			return err
		}
	}
	for _, n := range t.Notes {
		if _, err := fmt.Fprintf(w, "note: %s\n", n); err != nil {
			return err
		}
	}
	_, err := fmt.Fprintln(w)
	return err
}

// RenderMarkdown writes the table as GitHub-flavored Markdown.
func (t *Table) RenderMarkdown(w io.Writer) error {
	if _, err := fmt.Fprintf(w, "## %s — %s\n\n", t.ID, t.Title); err != nil {
		return err
	}
	esc := func(s string) string { return strings.ReplaceAll(s, "|", "\\|") }
	if len(t.Header) > 0 {
		cells := make([]string, 0, len(t.Header))
		for _, h := range t.Header {
			cells = append(cells, esc(h))
		}
		if _, err := fmt.Fprintf(w, "| %s |\n", strings.Join(cells, " | ")); err != nil {
			return err
		}
		seps := make([]string, len(t.Header))
		for i := range seps {
			seps[i] = "---"
		}
		if _, err := fmt.Fprintf(w, "|%s|\n", strings.Join(seps, "|")); err != nil {
			return err
		}
	}
	for _, row := range t.Rows {
		cells := make([]string, 0, len(row))
		for _, c := range row {
			cells = append(cells, esc(c))
		}
		if _, err := fmt.Fprintf(w, "| %s |\n", strings.Join(cells, " | ")); err != nil {
			return err
		}
	}
	for _, n := range t.Notes {
		if _, err := fmt.Fprintf(w, "\n> %s\n", n); err != nil {
			return err
		}
	}
	_, err := fmt.Fprintln(w)
	return err
}

// Runner produces one experiment table. ctx reaches every enumeration
// and LP the experiment runs.
type Runner func(context.Context) (*Table, error)

// Registry maps experiment IDs (DESIGN.md Sec. 2) to their drivers, in
// run order.
func Registry() []struct {
	ID  string
	Run Runner
} {
	return []struct {
		ID  string
		Run Runner
	}{
		{ID: "E1", Run: ScenarioI},
		{ID: "E2", Run: ScenarioII},
		{ID: "E3", Run: Fig2Topology},
		{ID: "E4", Run: Fig3Routing},
		{ID: "E5", Run: Fig4Estimation},
		{ID: "E6", Run: Eq9UpperBound},
		{ID: "E7", Run: LowerBounds},
		{ID: "E8", Run: AdaptationAblation},
		{ID: "E9", Run: SimValidation},
		{ID: "E10", Run: CSMAIdle},
		{ID: "E11", Run: DemandSweep},
		{ID: "E12", Run: RateDiversityAblation},
		{ID: "E13", Run: EstimatorAdmission},
		{ID: "E14", Run: GreedyVsOptimal},
		{ID: "E15", Run: FairAllocation},
		{ID: "E16", Run: InterferenceModelAblation},
		{ID: "E17", Run: CSRangeSensitivity},
	}
}

// Run executes one experiment by ID.
func Run(ctx context.Context, id string) (*Table, error) {
	for _, e := range Registry() {
		if strings.EqualFold(e.ID, id) {
			return e.Run(ctx)
		}
	}
	return nil, fmt.Errorf("experiments: unknown experiment %q", id)
}

// RunAllParallel executes every experiment concurrently with at most
// workers goroutines (0 means GOMAXPROCS) and returns the tables in
// registry order. Experiments are independent and deterministic, so the
// output is identical to running them one after another.
func RunAllParallel(ctx context.Context, workers int) ([]*Table, error) {
	reg := Registry()
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > len(reg) {
		workers = len(reg)
	}
	tables := make([]*Table, len(reg))
	errs := make([]error, len(reg))
	jobs := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range jobs {
				tables[i], errs[i] = reg[i].Run(ctx)
			}
		}()
	}
	for i := range reg {
		jobs <- i
	}
	close(jobs)
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			return nil, fmt.Errorf("experiments: %s: %w", reg[i].ID, err)
		}
	}
	return tables, nil
}
