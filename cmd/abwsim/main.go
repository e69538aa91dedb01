// Command abwsim regenerates the paper's evaluation: every table and
// figure (DESIGN.md Sec. 2) as plain-text tables.
//
// Usage:
//
//	abwsim            # run all experiments
//	abwsim -list      # list experiment IDs
//	abwsim -e E4      # run one experiment
//	abwsim -o out.txt # write to a file instead of stdout
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"

	"abw/internal/experiments"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("abwsim", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		list = fs.Bool("list", false, "list experiment IDs and exit")
		exp  = fs.String("e", "", "run a single experiment by ID (e.g. E4)")
		out  = fs.String("o", "", "write output to this file instead of stdout")
		md   = fs.Bool("md", false, "render tables as GitHub Markdown")
		par  = fs.Int("workers", 0, "concurrent experiments when running all (0 = GOMAXPROCS)")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}

	w := stdout
	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			fmt.Fprintln(stderr, "abwsim:", err)
			return 1
		}
		defer func() {
			if err := f.Close(); err != nil {
				fmt.Fprintln(stderr, "abwsim: closing output:", err)
			}
		}()
		w = f
	}

	if *list {
		for _, e := range experiments.Registry() {
			fmt.Fprintln(w, e.ID)
		}
		return 0
	}

	ctx := context.Background()
	var tables []*experiments.Table
	if *exp != "" {
		tbl, err := experiments.Run(ctx, *exp)
		if err != nil {
			fmt.Fprintln(stderr, "abwsim:", err)
			return 1
		}
		tables = append(tables, tbl)
	} else {
		var err error
		tables, err = experiments.RunAllParallel(ctx, *par)
		if err != nil {
			fmt.Fprintln(stderr, "abwsim:", err)
			return 1
		}
	}
	render := (*experiments.Table).Render
	if *md {
		render = (*experiments.Table).RenderMarkdown
	}
	for _, tbl := range tables {
		if err := render(tbl, w); err != nil {
			fmt.Fprintln(stderr, "abwsim:", err)
			return 1
		}
	}
	return 0
}
